//! Run reconstruction: turns a parsed trace into the per-stage, per-
//! model and per-fault report that the paper reports as tables.

use crate::audit;
use crate::event::Trace;
use sfn_obs::json::{self, obj, FromJson, JsonError, ToJson, Value};
use sfn_obs::StageSummary;
use sfn_prof::KernelTotals;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema marker written into every serialised [`Analysis`] so `diff`
/// can tell a saved summary from a raw JSONL trace.
pub const SUMMARY_SCHEMA: &str = "sfn-trace/summary@1";

/// Exact percentiles over a set of raw samples (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Sample count.
    pub count: u64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl Quantiles {
    /// Computes exact percentiles from unsorted samples (`None` when
    /// empty). Non-finite samples are dropped.
    pub fn from_samples(samples: &[f64]) -> Option<Quantiles> {
        let mut v: Vec<f64> = samples.iter().copied().filter(|s| s.is_finite()).collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(f64::total_cmp);
        let at = |q: f64| sfn_obs::exact_quantile(&v, q);
        Some(Quantiles {
            count: v.len() as u64,
            p50: at(0.50),
            p90: at(0.90),
            p99: at(0.99),
            max: v[v.len() - 1],
        })
    }
}

/// One kernel's throughput summary (from `prof.kernel` events), the
/// minimal slice of the profile that the `diff` gate compares.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStat {
    /// Kernel name (`conv2d`, `pcg`, `mic0`, …).
    pub name: String,
    /// Completed scope invocations.
    pub calls: u64,
    /// Total elapsed seconds.
    pub secs: f64,
    /// Achieved GFLOP/s over those seconds.
    pub gflops: f64,
}

/// One model's share of the run — the Table-3 analogue row.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelShare {
    /// Model name (`M7`, `pcg`, `pcg-degraded`, …).
    pub model: String,
    /// Steps attributed to this model.
    pub steps: u64,
    /// Summed per-step seconds.
    pub secs: f64,
    /// Fraction of the summed step time over all models, in `[0, 1]`.
    pub share: f64,
}

/// Fault-recovery latency: how long after each `fault.injected` the
/// runtime reacted (rollback, quarantine, recovery, sanitize, degrade).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoverySummary {
    /// `fault.injected` records.
    pub injected: u64,
    /// Injections with a later resolving event.
    pub resolved: u64,
    /// Median injected→resolved latency in seconds (NaN when none).
    pub p50_secs: f64,
    /// Worst injected→resolved latency in seconds (NaN when none).
    pub max_secs: f64,
}

/// Serving-layer activity (`serve.admit` / `serve.shed` /
/// `serve.request` / `serve.brownout` records). All-zero when the
/// trace has no serving in it; `latency_p99_ms` uses `0.0` (not NaN)
/// so summaries stay comparable as baselines.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeSummary {
    /// Requests that passed admission (`serve.admit` with
    /// `decision=admitted`).
    pub admitted: u64,
    /// Requests refused at admission (`decision=refused`).
    pub refused: u64,
    /// Admitted requests shed at dequeue (`serve.shed`).
    pub shed: u64,
    /// Completed requests (`serve.request`).
    pub requests: u64,
    /// Completed requests whose run was truncated by a deadline or
    /// step budget.
    pub truncated: u64,
    /// Brownout rung transitions (`serve.brownout`).
    pub brownout_transitions: u64,
    /// Highest rung level reached.
    pub max_rung_level: u64,
    /// p99 of served-request latency in milliseconds.
    pub latency_p99_ms: f64,
}

impl ServeSummary {
    fn any(&self) -> bool {
        self.admitted + self.refused + self.shed + self.requests + self.brownout_transitions > 0
    }
}

/// The reconstructed run.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Parsed records.
    pub events: u64,
    /// Unparseable lines (crash-truncated tails and the like).
    pub skipped: u64,
    /// Observed `ts` span in seconds.
    pub duration_secs: f64,
    /// `runtime.step` records.
    pub steps: u64,
    /// Exact step-latency percentiles from `runtime.step` (`None`
    /// when the trace has no step records, e.g. `SFN_LOG` below trace).
    pub step_latency: Option<Quantiles>,
    /// Per-stage histogram summaries from `stage.summary` records.
    pub stages: Vec<StageSummary>,
    /// Per-model time/step shares from `runtime.step` records.
    pub models: Vec<ModelShare>,
    /// Per-kernel throughput from `prof.kernel` records (empty when the
    /// run was not profiled).
    pub kernels: Vec<KernelStat>,
    /// `scheduler.decision` records.
    pub decisions: u64,
    /// Decision action counts, sorted by action name.
    pub actions: Vec<(String, u64)>,
    /// Decisions contradicting the Algorithm 2 replay (see [`audit`]).
    pub contradictions: u64,
    /// `sim.blowup` records.
    pub blowups: u64,
    /// `sim.sanitized` records.
    pub sanitized: u64,
    /// `runtime.quarantine` records.
    pub quarantines: u64,
    /// `runtime.rollback` records.
    pub rollbacks: u64,
    /// `runtime.degraded` records.
    pub degraded: u64,
    /// Fault-recovery latency summary.
    pub recovery: RecoverySummary,
    /// Serving-layer (sfn-serve) admission/shed/brownout summary.
    pub serve: ServeSummary,
}

/// Event kinds that count as "the runtime reacted" for recovery
/// latency, in the order they typically fire.
const RESOLVING_KINDS: &[&str] = &[
    "fault.recovered",
    "runtime.rollback",
    "runtime.quarantine",
    "runtime.degraded",
    "sim.sanitized",
];

/// Reconstructs the run report from a parsed trace.
pub fn analyze(trace: &Trace) -> Analysis {
    let (t0, t1) = trace.span().unwrap_or((0.0, 0.0));

    // Per-model shares and step latency from the runtime.step timeline.
    let mut per_model: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    let mut step_secs = Vec::new();
    for e in trace.of_kind("runtime.step") {
        let secs = e.f64("secs").unwrap_or(f64::NAN);
        let entry = per_model.entry(e.str("model").unwrap_or("?")).or_insert((0, 0.0));
        entry.0 += 1;
        if secs.is_finite() {
            entry.1 += secs;
            step_secs.push(secs);
        }
    }
    let total_secs: f64 = per_model.values().map(|&(_, s)| s).sum();
    let models = per_model
        .into_iter()
        .map(|(model, (steps, secs))| ModelShare {
            model: model.to_string(),
            steps,
            secs,
            share: if total_secs > 0.0 { secs / total_secs } else { 0.0 },
        })
        .collect();

    // Stage percentiles as the emitter's histograms saw them.
    let stages = trace.of_kind("stage.summary").map(|e| StageSummary::from_event(&e.fields)).collect();

    // Kernel throughput from the profiler's end-of-run emission.
    // Dotted per-path names (`conv2d.direct`, `advect.avx2`)
    // aggregate into their first segment: the diff gate compares
    // logical kernels, so a dispatch-path difference between the
    // baseline machine and the current one neither skips the
    // comparison nor reads as a missing kernel.
    let mut kernel_agg: BTreeMap<String, KernelTotals> = BTreeMap::new();
    for (name, t) in crate::profile::from_trace(trace).kernels {
        let base = name.split('.').next().unwrap_or(&name);
        kernel_agg.entry(base.to_string()).or_default().merge(&t);
    }
    let kernels = kernel_agg
        .into_iter()
        .map(|(name, t)| KernelStat {
            name,
            calls: t.calls,
            secs: t.secs(),
            // flops/ns ≡ GFLOP/s (the 1e9 factors cancel).
            gflops: if t.ns == 0 { 0.0 } else { t.flops as f64 / t.ns as f64 },
        })
        .collect();

    let mut actions: BTreeMap<String, u64> = BTreeMap::new();
    for e in trace.of_kind("scheduler.decision") {
        *actions.entry(e.str("action").unwrap_or("?").to_string()).or_insert(0) += 1;
    }

    // Recovery latency: each injection pairs with the next resolving
    // event at or after its timestamp. A record without a finite `ts`
    // has no place on the timeline and pairs with nothing.
    let mut latencies = Vec::new();
    let injected: Vec<f64> =
        trace.of_kind("fault.injected").map(|e| e.ts).filter(|t| t.is_finite()).collect();
    let mut resolutions: Vec<f64> = trace
        .events
        .iter()
        .filter(|e| RESOLVING_KINDS.contains(&e.kind.as_str()))
        .map(|e| e.ts)
        .filter(|t| t.is_finite())
        .collect();
    resolutions.sort_by(f64::total_cmp);
    for ts in &injected {
        if let Some(r) = resolutions.iter().find(|&&r| r >= *ts) {
            latencies.push(r - ts);
        }
    }
    let rq = Quantiles::from_samples(&latencies);
    let recovery = RecoverySummary {
        injected: trace.count("fault.injected"),
        resolved: latencies.len() as u64,
        p50_secs: rq.map_or(f64::NAN, |q| q.p50),
        max_secs: rq.map_or(f64::NAN, |q| q.max),
    };

    let mut serve = ServeSummary::default();
    for e in trace.of_kind("serve.admit") {
        match e.str("decision") {
            Some("refused") => serve.refused += 1,
            _ => serve.admitted += 1,
        }
    }
    serve.shed = trace.count("serve.shed");
    let mut serve_latencies = Vec::new();
    for e in trace.of_kind("serve.request") {
        serve.requests += 1;
        if e.str("truncated").is_some_and(|t| t != "none") {
            serve.truncated += 1;
        }
        if let Some(ms) = e.f64("latency_ms") {
            serve_latencies.push(ms);
        }
    }
    for e in trace.of_kind("serve.brownout") {
        serve.brownout_transitions += 1;
        serve.max_rung_level = serve.max_rung_level.max(e.u64("to_level").unwrap_or(0));
    }
    serve.latency_p99_ms =
        Quantiles::from_samples(&serve_latencies).map_or(0.0, |q| q.p99);

    Analysis {
        events: trace.events.len() as u64,
        skipped: trace.skipped as u64,
        duration_secs: t1 - t0,
        steps: trace.count("runtime.step"),
        step_latency: Quantiles::from_samples(&step_secs),
        stages,
        models,
        kernels,
        decisions: trace.count("scheduler.decision"),
        actions: actions.into_iter().collect(),
        contradictions: audit::audit(trace).contradictions.len() as u64,
        blowups: trace.count("sim.blowup"),
        sanitized: trace.count("sim.sanitized"),
        quarantines: trace.count("runtime.quarantine"),
        rollbacks: trace.count("runtime.rollback"),
        degraded: trace.count("runtime.degraded"),
        recovery,
        serve,
    }
}

// ------------------------------------------------------- serialisation
//
// Decoding is lenient, so summaries written before a section existed
// still load: an absent count reads 0, an absent name `"?"`, an absent
// latency NaN (0 in the `serve` section, which is all-zero when
// inactive). Sections no longer written (`ckpt`) are ignored.

sfn_obs::json_record!(Quantiles {
    count: 0,
    p50: f64::NAN,
    p90: f64::NAN,
    p99: f64::NAN,
    max: f64::NAN,
});

sfn_obs::json_record!(ModelShare { model: "?".to_string(), steps: 0, secs: f64::NAN, share: f64::NAN });

sfn_obs::json_record!(KernelStat { name: "?".to_string(), calls: 0, secs: f64::NAN, gflops: f64::NAN });

sfn_obs::json_record!(RecoverySummary { injected: 0, resolved: 0, p50_secs: f64::NAN, max_secs: f64::NAN });

sfn_obs::json_record!(ServeSummary {
    admitted: 0,
    refused: 0,
    shed: 0,
    requests: 0,
    truncated: 0,
    brownout_transitions: 0,
    max_rung_level: 0,
    latency_p99_ms: 0.0,
});

impl ToJson for Analysis {
    fn to_json_value(&self) -> Value {
        let actions = self.actions.iter().map(|(a, n)| (a.clone(), n.to_json_value())).collect();
        obj([
            ("schema", SUMMARY_SCHEMA.to_json_value()),
            ("events", self.events.to_json_value()),
            ("skipped", self.skipped.to_json_value()),
            ("duration_secs", self.duration_secs.to_json_value()),
            ("steps", self.steps.to_json_value()),
            ("step_latency", self.step_latency.to_json_value()),
            ("stages", self.stages.to_json_value()),
            ("models", self.models.to_json_value()),
            ("kernels", self.kernels.to_json_value()),
            ("decisions", self.decisions.to_json_value()),
            ("actions", Value::Obj(actions)),
            ("contradictions", self.contradictions.to_json_value()),
            ("blowups", self.blowups.to_json_value()),
            ("sanitized", self.sanitized.to_json_value()),
            ("quarantines", self.quarantines.to_json_value()),
            ("rollbacks", self.rollbacks.to_json_value()),
            ("degraded", self.degraded.to_json_value()),
            ("recovery", self.recovery.to_json_value()),
            ("serve", self.serve.to_json_value()),
        ])
    }
}

impl FromJson for Analysis {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        if v.get("schema").and_then(Value::as_str) != Some(SUMMARY_SCHEMA) {
            return Err(JsonError { at: 0, message: format!("not a {SUMMARY_SCHEMA} summary") });
        }
        // Absent sections decode like empty objects: every field at its
        // default.
        let section = |key: &str| v.get(key).unwrap_or(&Value::Null);
        let actions = section("actions")
            .as_obj()
            .unwrap_or_default()
            .iter()
            .map(|(a, n)| (a.clone(), n.as_u64().unwrap_or(0)))
            .collect();
        Ok(Analysis {
            events: v.field("events").unwrap_or(0),
            skipped: v.field("skipped").unwrap_or(0),
            duration_secs: v.field("duration_secs").unwrap_or(f64::NAN),
            steps: v.field("steps").unwrap_or(0),
            step_latency: v.field("step_latency").unwrap_or(None),
            stages: v.field("stages").unwrap_or_default(),
            models: v.field("models").unwrap_or_default(),
            kernels: v.field("kernels").unwrap_or_default(),
            decisions: v.field("decisions").unwrap_or(0),
            actions,
            contradictions: v.field("contradictions").unwrap_or(0),
            blowups: v.field("blowups").unwrap_or(0),
            sanitized: v.field("sanitized").unwrap_or(0),
            quarantines: v.field("quarantines").unwrap_or(0),
            rollbacks: v.field("rollbacks").unwrap_or(0),
            degraded: v.field("degraded").unwrap_or(0),
            recovery: RecoverySummary::from_json_value(section("recovery"))?,
            serve: ServeSummary::from_json_value(section("serve"))?,
        })
    }
}

impl Analysis {
    /// Serialises the analysis as the `sfn-trace/summary@1` JSON object
    /// (`diff` accepts these as baselines).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Parses a serialised summary back (the `diff` baseline path).
    pub fn from_json(text: &str) -> Result<Analysis, JsonError> {
        json::from_json_str(text)
    }

    /// Renders the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== sfn-trace run report ==\n");
        let _ = writeln!(
            out,
            "events={} skipped={} span={:.3}s steps={} decisions={} contradictions={}",
            self.events, self.skipped, self.duration_secs, self.steps, self.decisions, self.contradictions
        );
        if let Some(q) = self.step_latency {
            let _ = writeln!(
                out,
                "step latency: n={} p50={:.3}ms p90={:.3}ms p99={:.3}ms max={:.3}ms",
                q.count,
                1e3 * q.p50,
                1e3 * q.p90,
                1e3 * q.p99,
                1e3 * q.max
            );
        }
        if !self.models.is_empty() {
            out.push_str("-- time per model (Table-3 analogue) --\n");
            for m in &self.models {
                let _ = writeln!(
                    out,
                    "{:<16} steps={:<6} secs={:<10.4} share={:.1}%",
                    m.model,
                    m.steps,
                    m.secs,
                    100.0 * m.share
                );
            }
        }
        if !self.stages.is_empty() {
            out.push_str("-- stage latency (histogram approx) --\n");
            for s in &self.stages {
                let _ = writeln!(
                    out,
                    "{:<34} calls={:<8} total={:<9.3}s p50={:.3}ms p90={:.3}ms p99={:.3}ms",
                    s.name, s.calls, s.total_secs, s.p50_ms, s.p90_ms, s.p99_ms
                );
            }
        }
        if !self.kernels.is_empty() {
            out.push_str("-- kernel throughput (sfn-prof) --\n");
            for k in &self.kernels {
                let _ = writeln!(
                    out,
                    "{:<16} calls={:<8} secs={:<9.4} gflops={:.3}",
                    k.name, k.calls, k.secs, k.gflops
                );
            }
        }
        if !self.actions.is_empty() {
            out.push_str("-- scheduler actions --\n");
            for (action, n) in &self.actions {
                let _ = writeln!(out, "{action:<16} {n}");
            }
        }
        let _ = writeln!(
            out,
            "-- health --\nblowups={} sanitized={} quarantines={} rollbacks={} degraded={}",
            self.blowups, self.sanitized, self.quarantines, self.rollbacks, self.degraded
        );
        let r = &self.recovery;
        if r.injected > 0 {
            let _ = writeln!(
                out,
                "faults: injected={} resolved={} recovery p50={:.3}ms max={:.3}ms",
                r.injected,
                r.resolved,
                1e3 * r.p50_secs,
                1e3 * r.max_secs
            );
        }
        let sv = &self.serve;
        if sv.any() {
            let _ = writeln!(
                out,
                "serving: admitted={} refused={} shed={} requests={} truncated={} brownout_transitions={} max_rung={} p99={:.3}ms",
                sv.admitted,
                sv.refused,
                sv.shed,
                sv.requests,
                sv.truncated,
                sv.brownout_transitions,
                sv.max_rung_level,
                sv.latency_p99_ms
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_trace;

    #[test]
    fn dotted_kernel_paths_aggregate_into_first_segment() {
        let trace = parse_trace(concat!(
            "{\"ts\":0.1,\"level\":\"info\",\"kind\":\"prof.kernel\",\"kernel\":\"conv2d.direct\",\"calls\":3,\"ns\":1000,\"flops\":2000}\n",
            "{\"ts\":0.2,\"level\":\"info\",\"kind\":\"prof.kernel\",\"kernel\":\"conv2d.gemm.avx2\",\"calls\":1,\"ns\":3000,\"flops\":6000}\n",
            "{\"ts\":0.3,\"level\":\"info\",\"kind\":\"prof.kernel\",\"kernel\":\"pcg\",\"calls\":2,\"ns\":500,\"flops\":500}\n",
        ));
        let a = analyze(&trace);
        assert_eq!(a.kernels.len(), 2, "{:?}", a.kernels);
        let conv = a.kernels.iter().find(|k| k.name == "conv2d").unwrap();
        assert_eq!(conv.calls, 4);
        assert!((conv.secs - 4e-6).abs() < 1e-12);
        // (2000 + 6000) flops / 4000 ns = 2 GFLOP/s.
        assert!((conv.gflops - 2.0).abs() < 1e-12);
        assert!(a.kernels.iter().any(|k| k.name == "pcg" && k.calls == 2));
    }

    fn sample_trace() -> Trace {
        parse_trace(concat!(
            "{\"ts\":0.10,\"level\":\"trace\",\"kind\":\"runtime.step\",\"step\":1,\"model\":\"M7\",\"secs\":0.010,\"div_norm\":0.5}\n",
            "{\"ts\":0.12,\"level\":\"trace\",\"kind\":\"runtime.step\",\"step\":2,\"model\":\"M7\",\"secs\":0.010,\"div_norm\":0.5}\n",
            "{\"ts\":0.15,\"level\":\"trace\",\"kind\":\"runtime.step\",\"step\":3,\"model\":\"pcg\",\"secs\":0.030,\"div_norm\":0.1}\n",
            "{\"ts\":0.20,\"level\":\"info\",\"kind\":\"scheduler.decision\",\"step\":3,\"model\":\"M7\",",
            "\"predicted_loss\":0.01,\"target\":0.012,\"band_lo\":0.0096,\"band_hi\":0.0144,",
            "\"mlp\":true,\"up\":\"M9\",\"down\":\"none\",\"action\":\"keep\"}\n",
            "{\"ts\":0.30,\"level\":\"warn\",\"kind\":\"fault.injected\",\"fault\":\"nan_output\",\"site\":\"projector/M7\",\"step\":4}\n",
            "{\"ts\":0.35,\"level\":\"warn\",\"kind\":\"runtime.quarantine\",\"step\":4,\"model\":\"M7\",\"strikes\":1,\"ejected\":false}\n",
            "{\"ts\":0.36,\"level\":\"warn\",\"kind\":\"runtime.rollback\",\"from_step\":4,\"to_step\":0,\"from\":\"M7\",\"to\":\"M9\"}\n",
            "{\"ts\":0.50,\"level\":\"info\",\"kind\":\"stage.summary\",\"stage\":\"runtime/run\",\"calls\":1,",
            "\"total_secs\":0.4,\"p50_ms\":400.0,\"p90_ms\":400.0,\"p99_ms\":400.0}\n",
        ))
    }

    #[test]
    fn reconstructs_shares_stages_and_actions() {
        let a = analyze(&sample_trace());
        assert_eq!(a.events, 8);
        assert_eq!(a.steps, 3);
        assert_eq!(a.decisions, 1);
        assert_eq!(a.contradictions, 0);
        assert_eq!(a.actions, vec![("keep".to_string(), 1)]);
        assert_eq!(a.models.len(), 2);
        let m7 = a.models.iter().find(|m| m.model == "M7").unwrap();
        let pcg = a.models.iter().find(|m| m.model == "pcg").unwrap();
        assert_eq!(m7.steps, 2);
        assert!((m7.share - 0.4).abs() < 1e-9, "{}", m7.share);
        assert!((pcg.share - 0.6).abs() < 1e-9, "{}", pcg.share);
        assert_eq!(a.stages.len(), 1);
        assert_eq!(a.stages[0].name, "runtime/run");
        assert_eq!(a.quarantines, 1);
        assert_eq!(a.rollbacks, 1);
        assert_eq!(a.recovery.injected, 1);
        assert_eq!(a.recovery.resolved, 1);
        assert!((a.recovery.p50_secs - 0.05).abs() < 1e-9);
    }

    #[test]
    fn profiled_trace_yields_kernel_stats() {
        let t = parse_trace(concat!(
            "{\"ts\":0.1,\"level\":\"info\",\"kind\":\"prof.kernel\",\"kernel\":\"conv2d\",",
            "\"calls\":8,\"ns\":2000000000,\"flops\":4000000000,\"bytes_read\":16,",
            "\"bytes_written\":8,\"allocs\":2,\"alloc_bytes\":64,\"peak_bytes\":64}\n",
        ));
        let a = analyze(&t);
        assert_eq!(a.kernels.len(), 1);
        assert_eq!(a.kernels[0].name, "conv2d");
        assert_eq!(a.kernels[0].calls, 8);
        assert!((a.kernels[0].secs - 2.0).abs() < 1e-9);
        assert!((a.kernels[0].gflops - 2.0).abs() < 1e-9);
        // Full-struct equality would trip on recovery's NaN percentiles
        // (no faults in this trace), so compare the kernel table.
        let back = Analysis::from_json(&a.to_json()).unwrap();
        assert_eq!(back.kernels, a.kernels);
        assert!(a.render().contains("kernel throughput"), "{}", a.render());
    }

    #[test]
    fn summary_json_round_trips() {
        let a = analyze(&sample_trace());
        let text = a.to_json();
        assert!(text.contains(SUMMARY_SCHEMA), "{text}");
        let back = Analysis::from_json(&text).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn serve_events_are_summarised() {
        let t = parse_trace(concat!(
            "{\"ts\":0.1,\"level\":\"info\",\"kind\":\"serve.admit\",\"tenant\":\"acme\",\"decision\":\"admitted\",\"priority\":1}\n",
            "{\"ts\":0.2,\"level\":\"info\",\"kind\":\"serve.admit\",\"tenant\":\"acme\",\"decision\":\"refused\",\"reason\":\"rate_limited\",\"priority\":1}\n",
            "{\"ts\":0.3,\"level\":\"warn\",\"kind\":\"serve.shed\",\"tenant\":\"acme\",\"reason\":\"queue_deadline\"}\n",
            "{\"ts\":0.4,\"level\":\"info\",\"kind\":\"serve.request\",\"tenant\":\"acme\",\"latency_ms\":12.0,\"steps_done\":8,\"requested\":8,\"truncated\":\"none\",\"rung\":\"normal\",\"degraded\":false}\n",
            "{\"ts\":0.5,\"level\":\"info\",\"kind\":\"serve.request\",\"tenant\":\"acme\",\"latency_ms\":80.0,\"steps_done\":3,\"requested\":8,\"truncated\":\"deadline\",\"rung\":\"relax_quality\",\"degraded\":false}\n",
            "{\"ts\":0.6,\"level\":\"warn\",\"kind\":\"serve.brownout\",\"from\":\"normal\",\"to\":\"relax_quality\",\"from_level\":0,\"to_level\":1}\n",
            "{\"ts\":0.7,\"level\":\"warn\",\"kind\":\"serve.brownout\",\"from\":\"relax_quality\",\"to\":\"surrogate_only\",\"from_level\":1,\"to_level\":2}\n",
        ));
        let a = analyze(&t);
        assert_eq!(a.serve.admitted, 1);
        assert_eq!(a.serve.refused, 1);
        assert_eq!(a.serve.shed, 1);
        assert_eq!(a.serve.requests, 2);
        assert_eq!(a.serve.truncated, 1);
        assert_eq!(a.serve.brownout_transitions, 2);
        assert_eq!(a.serve.max_rung_level, 2);
        assert_eq!(a.serve.latency_p99_ms, 80.0);
        assert!(a.render().contains("serving: admitted=1"), "{}", a.render());
        let back = Analysis::from_json(&a.to_json()).unwrap();
        assert_eq!(back.serve, a.serve);
        // A serve-free trace keeps the report quiet but comparable.
        let quiet = analyze(&sample_trace());
        assert_eq!(quiet.serve, ServeSummary::default());
        assert!(!quiet.render().contains("serving:"), "{}", quiet.render());
    }

    #[test]
    fn summaries_from_before_a_section_existed_still_parse() {
        // Baselines serialised before profiling or serving existed load
        // those sections as empty / all-zero.
        let a = analyze(&sample_trace());
        let text = a.to_json();
        for section in [
            ",\"kernels\":[]",
            ",\"serve\":{\"admitted\":0,\"refused\":0,\"shed\":0,\"requests\":0,\"truncated\":0,\"brownout_transitions\":0,\"max_rung_level\":0,\"latency_p99_ms\":0}",
        ] {
            let legacy = text.replace(section, "");
            assert_ne!(legacy, text, "{section} must have been stripped from {text}");
            assert_eq!(Analysis::from_json(&legacy).unwrap(), a);
        }
        // Baselines serialised while durable checkpointing existed carry
        // a `ckpt` section, which decodes to nothing.
        let ckpt =
            ",\"ckpt\":{\"writes\":0,\"recovers\":0,\"rejected\":0,\"write_secs\":0,\"recover_max_secs\":0}";
        let legacy = text.replacen(",\"serve\":", &format!("{ckpt},\"serve\":"), 1);
        assert_ne!(legacy, text, "{ckpt} must have been inserted into {text}");
        assert_eq!(Analysis::from_json(&legacy).unwrap(), a);
    }

    #[test]
    fn from_json_rejects_non_summaries() {
        assert!(Analysis::from_json("{\"ts\":1.0,\"kind\":\"x\"}").is_err());
        assert!(Analysis::from_json("not json").is_err());
    }

    #[test]
    fn empty_trace_analyzes_to_zeroes() {
        let a = analyze(&parse_trace(""));
        assert_eq!(a.events, 0);
        assert_eq!(a.steps, 0);
        assert!(a.step_latency.is_none());
        assert!(a.models.is_empty());
        let text = a.to_json();
        let back = Analysis::from_json(&text).unwrap();
        assert_eq!(back.events, 0);
        assert!(back.step_latency.is_none());
    }

    #[test]
    fn exact_quantiles_from_samples() {
        let q = Quantiles::from_samples(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(q.count, 5);
        assert_eq!(q.p50, 3.0);
        assert_eq!(q.p90, 5.0);
        assert_eq!(q.max, 5.0);
        assert!(Quantiles::from_samples(&[]).is_none());
        assert!(Quantiles::from_samples(&[f64::NAN]).is_none());
    }

    #[test]
    fn recovery_pairing_skips_records_without_a_timestamp() {
        // A record with no `ts` reads as NaN; sorting the resolving
        // timestamps must not panic on it.
        let t = parse_trace(concat!(
            "{\"kind\":\"fault.recovered\"}\n",
            "{\"ts\":1.0,\"kind\":\"runtime.rollback\"}\n",
            "{\"ts\":0.5,\"kind\":\"fault.injected\"}\n",
        ));
        let a = analyze(&t);
        assert_eq!((a.recovery.injected, a.recovery.resolved), (1, 1));
        assert_eq!(a.recovery.p50_secs, 0.5);
    }
}
