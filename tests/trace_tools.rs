//! End-to-end trace toolchain: a real adaptive run captured through the
//! `sfn-obs` trace sink must flow through every `sfn-trace` stage —
//! parse, analyze, audit, Chrome export, summary round-trip — and the
//! `diff` gate must pass against itself and fail against a doctored
//! slow run. This is the in-repo rehearsal of the CI perf gate.

use smart_fluidnet::faults;
use smart_fluidnet::grid::CellFlags;
use smart_fluidnet::nn::Network;
use smart_fluidnet::obs;
use smart_fluidnet::obs::json::Value;
use smart_fluidnet::runtime::{CandidateModel, KnnDatabase, RuntimeConfig, SmartRuntime};
use smart_fluidnet::sim::{SimConfig, Simulation};
use smart_fluidnet::surrogate::yang_spec;
use smart_fluidnet::trace;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The obs trace sink is process-global; tests serialise on this.
static SINK: Mutex<()> = Mutex::new(());

fn hold() -> MutexGuard<'static, ()> {
    SINK.lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Clone)]
struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn candidate(name: &str, width: usize, seed: u64) -> CandidateModel {
    let mut net = Network::from_spec(&yang_spec(width), seed).unwrap();
    CandidateModel {
        name: name.into(),
        saved: net.save(),
        probability: 0.8,
        exec_time: 0.1,
        quality_loss: 0.02,
    }
}

/// Captures one healthy 24-step adaptive run as JSONL text. The run is
/// executed once per process and cached — every test sees the same
/// trace, and the sink toggling stays inside the first caller.
fn healthy_trace_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let _g = hold();
        faults::install(None);
        let buf = SharedBuf(std::sync::Arc::new(Mutex::new(Vec::new())));
        obs::set_trace_writer(Some(Box::new(buf.clone())));
        let candidates = vec![candidate("tt-a", 2, 11), candidate("tt-b", 3, 12)];
        let knn =
            KnnDatabase::new((0..64).map(|i| (i as f64 * 10.0, i as f64 * 0.001)).collect())
                .unwrap();
        let mut rt = SmartRuntime::try_new(
            candidates,
            knn,
            RuntimeConfig { total_steps: 24, quality_target: 1.0, ..Default::default() },
        )
        .unwrap();
        rt.run(Simulation::new(SimConfig::plume(16), CellFlags::smoke_box(16, 16)));
        obs::flush_trace();
        obs::set_trace_writer(None);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        text
    })
}

/// A copy of the healthy trace with every `runtime.step` duration
/// multiplied by `factor` — the synthetic perf regression.
fn slowed(parsed: &trace::Trace, factor: f64) -> trace::Trace {
    let mut doctored = parsed.clone();
    for e in &mut doctored.events {
        if e.kind != "runtime.step" {
            continue;
        }
        if let Value::Obj(fields) = &mut e.fields {
            for (key, value) in fields.iter_mut() {
                if key == "secs" {
                    if let Value::Num(v) = value {
                        *v *= factor;
                    }
                }
            }
        }
    }
    doctored
}

#[test]
fn captured_run_flows_through_analyze_audit_and_export() {
    let parsed = trace::parse_trace(healthy_trace_text());
    assert_eq!(parsed.skipped, 0);

    let analysis = trace::analyze(&parsed);
    assert_eq!(analysis.steps, 24);
    let lat = analysis.step_latency.as_ref().expect("step timings present");
    assert!(lat.p50 > 0.0 && lat.p50 <= lat.p99, "{lat:?}");
    assert!(!analysis.models.is_empty());
    assert_eq!(analysis.contradictions, 0);
    assert!(analysis.render().contains("steps"), "render is human-readable");

    let audit = trace::audit(&parsed);
    assert!(audit.clean(), "{}", audit.render());

    // The Chrome export is valid JSON with one slice per step plus the
    // instant events, all inside `traceEvents`.
    let chrome = trace::export_chrome(&parsed);
    let doc = obs::json::parse(&chrome).expect("chrome export parses");
    let events = doc.get("traceEvents").and_then(Value::as_arr).expect("traceEvents array");
    let slices =
        events.iter().filter(|e| e.get("ph").and_then(Value::as_str) == Some("X")).count();
    assert_eq!(slices, 24, "one complete slice per step");
}

#[test]
fn summary_round_trip_feeds_a_passing_self_diff() {
    let parsed = trace::parse_trace(healthy_trace_text());
    let analysis = trace::analyze(&parsed);
    // Persist and reload, as CI does with the committed baseline file.
    let reloaded = trace::Analysis::from_json(&analysis.to_json()).expect("summary round-trips");
    assert_eq!(reloaded.steps, analysis.steps);

    let verdict = trace::diff(&reloaded, &analysis, &trace::Thresholds::default());
    assert!(verdict.ok(), "{}", verdict.render());
}

#[test]
fn doctored_slow_trace_fails_the_diff_gate() {
    let parsed = trace::parse_trace(healthy_trace_text());
    let baseline = trace::analyze(&parsed);
    let slow = trace::analyze(&slowed(&parsed, 10.0));

    // A 10x slowdown must trip the default 1.5x ratio on a step
    // latency percentile; which percentile depends on the noise floor.
    let verdict = trace::diff(&baseline, &slow, &trace::Thresholds::default());
    assert!(!verdict.ok(), "a 10x slowdown must fail the gate");
    assert!(
        verdict.regressions.iter().any(|r| r.metric.starts_with("step.")),
        "{}",
        verdict.render()
    );
    for r in &verdict.regressions {
        assert!(r.current > r.limit, "{}: {} <= {}", r.metric, r.current, r.limit);
    }

    // And the reverse direction — a run much faster than baseline —
    // is an improvement, not a regression.
    let verdict = trace::diff(&slow, &baseline, &trace::Thresholds::default());
    assert!(verdict.ok(), "{}", verdict.render());
}

#[test]
fn committed_kernel_baseline_passes_and_doctored_kernels_fail() {
    // The exact pairs the CI profile-gate diffs: the committed baseline
    // must self-diff clean, and each doctored fixture (one kernel at
    // half throughput, i.e. 2x slower: the conv, and the MIC(0) sweeps)
    // must trip the default 1.5x kernel-ratio threshold on that kernel.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let load = |name: &str| {
        let text = std::fs::read_to_string(root.join("baselines").join(name))
            .unwrap_or_else(|e| panic!("cannot read baselines/{name}: {e}"));
        trace::Analysis::from_json(&text)
            .unwrap_or_else(|e| panic!("baselines/{name} is not a summary: {}", e.message))
    };
    let baseline = load("kernel_baseline.json");
    let verdict = trace::diff(&baseline, &baseline, &trace::Thresholds::default());
    assert!(verdict.ok(), "{}", verdict.render());

    for (kernel, fixture) in [
        ("conv2d", "kernel_doctored.json"),
        ("mic0", "kernel_doctored_mic0.json"),
    ] {
        let profiled = |k: &trace::KernelStat| k.name == kernel && k.gflops > 0.0;
        assert!(
            baseline.kernels.iter().any(profiled),
            "committed baseline must carry a profiled {kernel} kernel"
        );
        let doctored = load(fixture);
        let verdict = trace::diff(&baseline, &doctored, &trace::Thresholds::default());
        assert!(
            !verdict.ok(),
            "a 2x-slower {kernel} kernel must fail the gate"
        );
        let metric = format!("kernel.{kernel}.gflops");
        assert!(
            verdict.regressions.iter().any(|r| r.metric == metric),
            "{}",
            verdict.render()
        );

        // Faster-than-baseline is an improvement, never a regression.
        let verdict = trace::diff(&doctored, &baseline, &trace::Thresholds::default());
        assert!(verdict.ok(), "{}", verdict.render());
    }
}
