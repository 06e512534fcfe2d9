//! Trace/summary comparison: the CI perf-regression gate.
//!
//! Two runs — each a raw JSONL trace or a saved `sfn-trace/summary@1`
//! document — are reduced to [`Analysis`] and compared metric by
//! metric against [`Thresholds`]. The result is a machine-readable
//! [`Verdict`]; the CLI exits non-zero when it is not ok, which is the
//! whole gate.
//!
//! Latency comparisons are ratio-based with an absolute floor:
//! percentiles below the floor are noise on a shared CI runner and are
//! never flagged, no matter the ratio.

use crate::analyze::Analysis;
use sfn_obs::json::{obj, ToJson};
use std::fmt::Write as _;

/// Per-metric regression thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Maximum allowed current/baseline ratio on latency percentiles
    /// (step p50/p99, stage p99, duration).
    pub latency_ratio: f64,
    /// Latencies below this many milliseconds are never flagged.
    pub latency_floor_ms: f64,
    /// Maximum allowed absolute drift of a model's time share.
    pub share_abs: f64,
    /// Maximum allowed scheduler-audit contradictions in the current
    /// run.
    pub max_contradictions: u64,
    /// Maximum allowed baseline/current ratio on per-kernel GFLOP/s
    /// (a kernel regresses when its throughput drops below
    /// `baseline / kernel_ratio`).
    pub kernel_ratio: f64,
    /// Kernels whose current total time is below this many milliseconds
    /// are never flagged — their throughput is timer noise.
    pub kernel_floor_ms: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            latency_ratio: 1.5,
            latency_floor_ms: 0.05,
            share_abs: 0.25,
            max_contradictions: 0,
            kernel_ratio: 1.5,
            kernel_floor_ms: 0.05,
        }
    }
}

/// One threshold violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Which metric regressed (`step.p99_ms`, `share.M7`, …).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// The limit that was exceeded.
    pub limit: f64,
}

sfn_obs::json_record!(Regression {
    metric: "?".to_string(),
    baseline: f64::NAN,
    current: f64::NAN,
    limit: f64::NAN,
});

/// The comparison result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// The violations, empty when the gate passes.
    pub regressions: Vec<Regression>,
}

impl Verdict {
    /// True when no threshold was violated.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Machine-readable verdict document (`sfn-trace/verdict@1`).
    pub fn to_json(&self) -> String {
        obj([
            ("schema", "sfn-trace/verdict@1".to_json_value()),
            ("ok", self.ok().to_json_value()),
            ("regressions", self.regressions.to_json_value()),
        ])
        .to_json()
    }

    /// Human-readable verdict.
    pub fn render(&self) -> String {
        if self.ok() {
            return "sfn-trace diff: ok\n".to_string();
        }
        let mut out = format!("sfn-trace diff: {} regression(s)\n", self.regressions.len());
        for r in &self.regressions {
            let _ = writeln!(
                out,
                "  {}: baseline {:.4} -> current {:.4} (limit {:.4})",
                r.metric, r.baseline, r.current, r.limit
            );
        }
        out
    }
}

fn check_latency(
    verdict: &mut Verdict,
    t: &Thresholds,
    metric: &str,
    baseline_ms: f64,
    current_ms: f64,
) {
    if !baseline_ms.is_finite() || !current_ms.is_finite() {
        return; // missing on either side: nothing comparable
    }
    if current_ms <= t.latency_floor_ms {
        return;
    }
    // A zero/sub-floor baseline with an above-floor current is compared
    // against the floor so the ratio stays meaningful.
    let base = baseline_ms.max(t.latency_floor_ms);
    if current_ms > base * t.latency_ratio {
        verdict.regressions.push(Regression {
            metric: metric.to_string(),
            baseline: baseline_ms,
            current: current_ms,
            limit: base * t.latency_ratio,
        });
    }
}

/// Compares `current` against `baseline` under `thresholds`.
pub fn diff(baseline: &Analysis, current: &Analysis, thresholds: &Thresholds) -> Verdict {
    let t = thresholds;
    let mut verdict = Verdict::default();

    if current.contradictions > t.max_contradictions {
        verdict.regressions.push(Regression {
            metric: "audit.contradictions".to_string(),
            baseline: baseline.contradictions as f64,
            current: current.contradictions as f64,
            limit: t.max_contradictions as f64,
        });
    }

    if let (Some(b), Some(c)) = (baseline.step_latency, current.step_latency) {
        check_latency(&mut verdict, t, "step.p50_ms", 1e3 * b.p50, 1e3 * c.p50);
        check_latency(&mut verdict, t, "step.p99_ms", 1e3 * b.p99, 1e3 * c.p99);
    }
    check_latency(
        &mut verdict,
        t,
        "duration_ms",
        1e3 * baseline.duration_secs,
        1e3 * current.duration_secs,
    );

    // Served-request tail latency: only comparable when both runs
    // actually served traffic (an all-zero serve summary is a run from
    // before sfn-serve existed, or one without serving in it).
    if baseline.serve.requests > 0 && current.serve.requests > 0 {
        check_latency(
            &mut verdict,
            t,
            "serve.p99_ms",
            baseline.serve.latency_p99_ms,
            current.serve.latency_p99_ms,
        );
    }

    for cs in &current.stages {
        if let Some(bs) = baseline.stages.iter().find(|s| s.name == cs.name) {
            check_latency(
                &mut verdict,
                t,
                &format!("stage.{}.p99_ms", cs.name),
                bs.p99_ms,
                cs.p99_ms,
            );
        }
    }

    // A profiled run (one with any kernel record) must still run every
    // kernel the baseline lists. Absence is not noise, so no time floor
    // applies; an unprofiled run has no kernel records and skips this.
    if !current.kernels.is_empty() {
        for bk in &baseline.kernels {
            if !current.kernels.iter().any(|k| k.name == bk.name) {
                verdict.regressions.push(Regression {
                    metric: format!("kernel.{}.missing", bk.name),
                    baseline: bk.calls as f64,
                    current: 0.0,
                    limit: 1.0,
                });
            }
        }
    }

    // Kernel throughput: a kernel regresses when its GFLOP/s drops to
    // less than baseline / kernel_ratio. Kernels absent from the
    // baseline (new instrumentation) and kernels below the time floor
    // are skipped; ratio comparisons on noise help nobody.
    for ck in &current.kernels {
        if ck.secs * 1e3 < t.kernel_floor_ms {
            continue;
        }
        if let Some(bk) = baseline.kernels.iter().find(|k| k.name == ck.name) {
            if !bk.gflops.is_finite() || !ck.gflops.is_finite() || bk.gflops <= 0.0 {
                continue;
            }
            let limit = bk.gflops / t.kernel_ratio;
            if ck.gflops < limit {
                verdict.regressions.push(Regression {
                    metric: format!("kernel.{}.gflops", ck.name),
                    baseline: bk.gflops,
                    current: ck.gflops,
                    limit,
                });
            }
        }
    }

    for cm in &current.models {
        if let Some(bm) = baseline.models.iter().find(|m| m.model == cm.model) {
            let drift = (cm.share - bm.share).abs();
            if drift.is_finite() && drift > t.share_abs {
                verdict.regressions.push(Regression {
                    metric: format!("share.{}", cm.model),
                    baseline: bm.share,
                    current: cm.share,
                    limit: t.share_abs,
                });
            }
        }
    }

    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{KernelStat, ModelShare, Quantiles, RecoverySummary, ServeSummary};
    use sfn_obs::StageSummary;

    fn base() -> Analysis {
        Analysis {
            events: 100,
            skipped: 0,
            duration_secs: 1.0,
            steps: 50,
            step_latency: Some(Quantiles { count: 50, p50: 0.010, p90: 0.012, p99: 0.015, max: 0.02 }),
            stages: vec![StageSummary {
                name: "runtime/run".to_string(),
                calls: 1,
                total_secs: 1.0,
                p50_ms: 1000.0,
                p90_ms: 1000.0,
                p99_ms: 1000.0,
            }],
            models: vec![ModelShare { model: "M7".to_string(), steps: 50, secs: 0.5, share: 0.8 }],
            kernels: vec![
                KernelStat { name: "conv2d".to_string(), calls: 10, secs: 0.4, gflops: 8.0 },
                KernelStat { name: "pcg".to_string(), calls: 20, secs: 0.3, gflops: 2.0 },
            ],
            decisions: 5,
            actions: vec![("keep".to_string(), 5)],
            contradictions: 0,
            blowups: 0,
            sanitized: 0,
            quarantines: 0,
            rollbacks: 0,
            degraded: 0,
            recovery: RecoverySummary { injected: 0, resolved: 0, p50_secs: f64::NAN, max_secs: f64::NAN },
            serve: ServeSummary {
                admitted: 20,
                refused: 2,
                shed: 1,
                requests: 20,
                truncated: 3,
                brownout_transitions: 4,
                max_rung_level: 2,
                latency_p99_ms: 40.0,
            },
        }
    }

    #[test]
    fn identical_runs_pass() {
        let v = diff(&base(), &base(), &Thresholds::default());
        assert!(v.ok(), "{}", v.render());
        assert!(v.to_json().contains("\"ok\":true"));
    }

    #[test]
    fn served_p99_regressions_fail_the_gate() {
        let mut cur = base();
        cur.serve.latency_p99_ms = 200.0; // 5× the 40 ms baseline
        let v = diff(&base(), &cur, &Thresholds::default());
        assert!(!v.ok());
        assert!(v.regressions.iter().any(|r| r.metric == "serve.p99_ms"), "{:?}", v.regressions);
        // A serve-free baseline (pre-serve summary) never gates on it.
        let mut old = base();
        old.serve = ServeSummary::default();
        let v = diff(&old, &cur, &Thresholds::default());
        assert!(v.ok(), "{}", v.render());
    }

    #[test]
    fn slow_steps_fail_the_gate() {
        let mut cur = base();
        let q = cur.step_latency.as_mut().unwrap();
        q.p50 *= 3.0;
        q.p99 *= 3.0;
        let v = diff(&base(), &cur, &Thresholds::default());
        assert!(!v.ok());
        assert!(v.regressions.iter().any(|r| r.metric == "step.p99_ms"), "{:?}", v.regressions);
        assert!(v.to_json().contains("\"ok\":false"));
    }

    #[test]
    fn contradictions_fail_the_gate() {
        let mut cur = base();
        cur.contradictions = 1;
        let v = diff(&base(), &cur, &Thresholds::default());
        assert_eq!(v.regressions.len(), 1);
        assert_eq!(v.regressions[0].metric, "audit.contradictions");
    }

    #[test]
    fn share_drift_fails_the_gate() {
        let mut cur = base();
        cur.models[0].share = 0.4;
        let v = diff(&base(), &cur, &Thresholds::default());
        assert!(v.regressions.iter().any(|r| r.metric == "share.M7"));
    }

    #[test]
    fn sub_floor_latencies_are_never_flagged() {
        let mut b = base();
        let mut c = base();
        b.step_latency = Some(Quantiles { count: 5, p50: 1e-6, p90: 1e-6, p99: 1e-6, max: 1e-6 });
        c.step_latency = Some(Quantiles { count: 5, p50: 4e-6, p90: 4e-6, p99: 4e-6, max: 4e-6 });
        b.duration_secs = 0.00001;
        c.duration_secs = 0.00004;
        b.stages.clear();
        c.stages.clear();
        let v = diff(&b, &c, &Thresholds::default());
        assert!(v.ok(), "{}", v.render());
    }

    #[test]
    fn halved_kernel_throughput_fails_the_gate() {
        // A conv kernel running 2x slower (same work, double the time)
        // halves GFLOP/s, which is below baseline / 1.5.
        let mut cur = base();
        cur.kernels[0].secs = 0.8;
        cur.kernels[0].gflops = 4.0;
        let v = diff(&base(), &cur, &Thresholds::default());
        assert!(!v.ok());
        assert!(
            v.regressions.iter().any(|r| r.metric == "kernel.conv2d.gflops"),
            "{:?}",
            v.regressions
        );
    }

    #[test]
    fn kernels_absent_from_baseline_are_skipped() {
        let mut cur = base();
        cur.kernels.push(KernelStat {
            name: "brand-new".to_string(),
            calls: 1,
            secs: 5.0,
            gflops: 0.001,
        });
        let v = diff(&base(), &cur, &Thresholds::default());
        assert!(v.ok(), "{}", v.render());
    }

    #[test]
    fn kernels_missing_from_a_profiled_run_fail_the_gate() {
        let mut cur = base();
        cur.kernels.retain(|k| k.name != "pcg");
        let v = diff(&base(), &cur, &Thresholds::default());
        assert_eq!(v.regressions.len(), 1, "{}", v.render());
        assert_eq!(v.regressions[0].metric, "kernel.pcg.missing");
        assert_eq!((v.regressions[0].baseline, v.regressions[0].current), (20.0, 0.0));
        // An unprofiled run carries no kernel records and is not judged.
        cur.kernels.clear();
        let v = diff(&base(), &cur, &Thresholds::default());
        assert!(v.ok(), "{}", v.render());
    }

    #[test]
    fn sub_floor_kernels_are_never_flagged() {
        let mut cur = base();
        cur.kernels[1].secs = 0.00001; // 0.01 ms, below the 0.05 ms floor
        cur.kernels[1].gflops = 0.0001;
        let v = diff(&base(), &cur, &Thresholds::default());
        assert!(v.ok(), "{}", v.render());
    }

    #[test]
    fn new_stages_and_models_are_not_compared() {
        let mut cur = base();
        cur.stages.push(StageSummary {
            name: "brand/new".to_string(),
            calls: 1,
            total_secs: 9.0,
            p50_ms: 9000.0,
            p90_ms: 9000.0,
            p99_ms: 9000.0,
        });
        cur.models.push(ModelShare { model: "M9".to_string(), steps: 1, secs: 0.01, share: 0.01 });
        let v = diff(&base(), &cur, &Thresholds::default());
        assert!(v.ok(), "{}", v.render());
    }
}
