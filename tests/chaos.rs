//! Chaos suite: seeded, deterministic fault schedules driven through
//! the public facade against the self-healing runtime.
//!
//! Contract under test: whatever the schedule injects, a run must end
//! without a panic, with a finite final frame, and either meet the
//! quality path on the surrogates, report a PCG restart, or report
//! graceful degradation (`SchedulerEvent::Degrade`).
//!
//! The CI `chaos` job re-runs this binary under an `SFN_FAULTS`
//! environment schedule for a matrix of seeds (see
//! `env_schedule_from_sfn_faults_survives`).

use smart_fluidnet::faults;
use smart_fluidnet::grid::CellFlags;
use smart_fluidnet::nn::Network;
use smart_fluidnet::runtime::{
    CandidateModel, KnnDatabase, RunOutcome, RuntimeConfig, SchedulerEvent, SmartRuntime,
};
use smart_fluidnet::sim::{SimConfig, Simulation};
use smart_fluidnet::surrogate::yang_spec;
use std::sync::{Mutex, MutexGuard};

/// The fault plan is process-global; every test serialises on this.
static FAULTS: Mutex<()> = Mutex::new(());

fn hold() -> MutexGuard<'static, ()> {
    FAULTS.lock().unwrap_or_else(|e| e.into_inner())
}

fn candidate(name: &str, width: usize, seed: u64, prob: f64, q: f64) -> CandidateModel {
    let mut net = Network::from_spec(&yang_spec(width), seed).unwrap();
    CandidateModel {
        name: name.into(),
        saved: net.save(),
        probability: prob,
        exec_time: 0.1,
        quality_loss: q,
    }
}

/// Three untrained candidates whose labels all contain `chaos-` so a
/// schedule can target one model or the whole family by substring.
fn runtime(total_steps: usize) -> SmartRuntime {
    let candidates = vec![
        candidate("chaos-a", 2, 1, 0.9, 0.05),
        candidate("chaos-b", 3, 2, 0.7, 0.03),
        candidate("chaos-c", 4, 3, 0.5, 0.01),
    ];
    let knn = KnnDatabase::new((0..64).map(|i| (i as f64 * 10.0, i as f64 * 0.001)).collect())
        .expect("valid KNN pairs");
    SmartRuntime::try_new(
        candidates,
        knn,
        RuntimeConfig {
            total_steps,
            // Generous target: only injected faults force the
            // scheduler's hand, not ordinary quality pressure.
            quality_target: 1.0,
            ..Default::default()
        },
    )
    .expect("loadable candidates")
}

fn simulation() -> Simulation {
    Simulation::new(SimConfig::plume(16), CellFlags::smoke_box(16, 16))
}

/// Installs `plan`, runs a fresh runtime, disarms, and returns the
/// outcome plus the injection tally. Caller must already `hold()`.
fn run_under(plan: &str, total_steps: usize) -> (RunOutcome, u64) {
    faults::install(Some(faults::parse_plan(plan).expect("valid chaos plan")));
    let out = runtime(total_steps).run(simulation());
    let injected = faults::injected_count();
    faults::install(None);
    (out, injected)
}

/// The suite-wide survival contract.
fn assert_survived(out: &RunOutcome, total_steps: usize) {
    assert!(out.density.all_finite(), "final frame must be finite");
    assert!(
        out.cum_div_norm.iter().all(|v| v.is_finite()),
        "CumDivNorm series must stay finite"
    );
    assert_eq!(
        out.cum_div_norm.len(),
        total_steps,
        "a surviving run finishes every step (restarted={}, degraded={})",
        out.restarted,
        out.degraded
    );
    if out.degraded {
        assert!(
            matches!(out.events.last(), Some(SchedulerEvent::Degrade { .. })),
            "degradation must be reported as an event: {:?}",
            out.events
        );
        assert!(
            !out.quarantined.is_empty(),
            "a degraded run must name the struck models"
        );
    }
}

#[test]
fn nan_storm_on_one_model_rolls_back_and_recovers() {
    let _g = hold();
    // The highest-probability model (the scheduler's starting pick)
    // corrupts on every inference: the runtime must strike it, roll
    // back, and finish on the siblings — no restart, no degradation.
    let (out, injected) = run_under(
        r#"{"seed": 7, "faults": [
            {"kind": "nan_output", "p": 1.0, "target": "chaos-a"}]}"#,
        20,
    );
    assert!(injected > 0, "the p=1 schedule must fire");
    assert_survived(&out, 20);
    assert!(!out.degraded && !out.restarted, "events: {:?}", out.events);
    assert!(out.rollbacks >= 1);
    assert!(
        out.quarantined.iter().any(|(m, s)| m == "chaos-a" && *s >= 1),
        "the corrupting model must be struck: {:?}",
        out.quarantined
    );
    // The poisoned model cannot have carried the surviving run.
    let a = out.model_names.iter().position(|n| n == "chaos-a").unwrap();
    let clean: usize = out
        .steps_per_model
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != a)
        .map(|(_, s)| s)
        .sum();
    assert!(clean >= 20, "siblings must cover the full run");
}

#[test]
fn poisoning_every_model_degrades_to_pcg() {
    let _g = hold();
    // `target: "chaos"` matches all three candidates: every model is
    // struck until the whole set is barred, and the run must finish on
    // the exact solver with a Degrade event — never panic or spin.
    let (out, injected) = run_under(
        r#"{"seed": 3, "faults": [
            {"kind": "nan_output", "p": 1.0, "target": "chaos"}]}"#,
        12,
    );
    assert!(injected >= 3, "all three models must have been hit");
    assert_survived(&out, 12);
    assert!(out.degraded, "events: {:?}", out.events);
    assert!(!out.restarted);
    assert_eq!(out.quarantined.len(), 3, "{:?}", out.quarantined);
    assert!(matches!(
        out.events.last(),
        Some(SchedulerEvent::Degrade { barred: 3, .. })
    ));
}

#[test]
fn inf_schedules_across_seeds_never_panic() {
    let _g = hold();
    // The same probabilistic schedule under three seeds produces three
    // different injection patterns; every one must satisfy the
    // survival contract whatever path (recover/restart/degrade) it
    // takes.
    for seed in [1u64, 2, 3] {
        let plan = format!(
            r#"{{"seed": {seed}, "faults": [
                {{"kind": "inf_output", "p": 0.25, "mag": 0.05, "target": "chaos"}}]}}"#,
        );
        let (out, _) = run_under(&plan, 20);
        assert_survived(&out, 20);
    }
}

#[test]
fn latency_spikes_slow_inference_without_corruption() {
    let _g = hold();
    let (out, injected) = run_under(
        r#"{"seed": 5, "faults": [
            {"kind": "latency_spike", "p": 1.0, "mag": 0.2, "target": "chaos"}]}"#,
        10,
    );
    // Latency is injected on every inference but corrupts nothing: the
    // run completes with zero strikes.
    assert!(injected >= 10, "one spike per step, got {injected}");
    assert_survived(&out, 10);
    assert!(!out.degraded && !out.restarted);
    assert_eq!(out.rollbacks, 0);
    assert!(out.quarantined.is_empty());
}

#[test]
fn starved_degraded_tail_still_terminates() {
    let _g = hold();
    // Worst case: every surrogate is poisoned AND the PCG tail the run
    // degrades to is starved of convergence on some solves. Graceful
    // degradation must still be terminal and finite.
    let (out, _) = run_under(
        r#"{"seed": 13, "faults": [
            {"kind": "nan_output", "p": 1.0, "target": "chaos"},
            {"kind": "solver_starvation", "p": 0.2, "mag": 0.5, "target": "pcg-degraded"}]}"#,
        12,
    );
    assert_survived(&out, 12);
    assert!(out.degraded, "events: {:?}", out.events);
}

#[test]
fn fault_schedule_replays_identically() {
    let _g = hold();
    let plan = r#"{"seed": 7, "faults": [
        {"kind": "nan_output", "p": 1.0, "target": "chaos-a"}]}"#;
    let (first, injected_first) = run_under(plan, 20);
    let (second, injected_second) = run_under(plan, 20);
    // Decisions are pure hashes of (seed, spec, site, step): two runs
    // of the same schedule must produce the same injections, the same
    // scheduling events, and the same strikes.
    assert_eq!(injected_first, injected_second);
    assert_eq!(first.events, second.events);
    assert_eq!(first.quarantined, second.quarantined);
    assert_eq!(first.rollbacks, second.rollbacks);
    assert_eq!(first.degraded, second.degraded);
}

/// An in-memory trace sink for asserting on emitted JSONL records.
#[derive(Clone)]
struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn new() -> Self {
        Self(std::sync::Arc::new(Mutex::new(Vec::new())))
    }

    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn trace_carries_enriched_decisions_and_a_clean_audit() {
    use smart_fluidnet::obs;
    use smart_fluidnet::trace;
    let _g = hold();
    faults::install(None);
    let buf = SharedBuf::new();
    obs::set_trace_writer(Some(Box::new(buf.clone())));
    let out = runtime(20).run(simulation());
    obs::flush_trace();
    obs::set_trace_writer(None);

    let parsed = trace::parse_trace(&buf.contents());
    assert_eq!(parsed.skipped, 0, "every emitted line must parse back");

    // Every step appears on the timeline with its model and duration.
    let steps: Vec<_> = parsed.of_kind("runtime.step").collect();
    assert_eq!(steps.len(), 20, "one record per executed step");
    for s in &steps {
        assert!(s.str("model").is_some() && s.f64("secs").is_some(), "{:?}", s.fields);
    }

    // Decisions carry the full Algorithm 2 replay envelope...
    let decisions: Vec<_> = parsed.of_kind("scheduler.decision").collect();
    assert!(!decisions.is_empty(), "a 20-step adaptive run checks quality");
    for d in &decisions {
        for key in ["mlp", "up", "down", "action"] {
            assert!(d.fields.get(key).is_some(), "missing {key}: {:?}", d.fields);
        }
        for key in ["barred", "rank", "candidates"] {
            assert!(d.u64(key).is_some(), "missing {key}: {:?}", d.fields);
        }
        assert_eq!(d.u64("candidates"), Some(3));
    }
    // ...and a healthy run replays with zero contradictions.
    let audit = trace::audit(&parsed);
    assert!(audit.clean(), "{}", audit.render());
    assert_eq!(audit.decisions, decisions.len() as u64);

    // The reconstructed per-model step counts cross-check against the
    // runtime's own tally (the Table-3 analogue agrees with telemetry).
    let analysis = trace::analyze(&parsed);
    for m in &analysis.models {
        let i = out.model_names.iter().position(|n| *n == m.model).unwrap();
        assert_eq!(m.steps as usize, out.steps_per_model[i], "{}", m.model);
    }
    let share_sum: f64 = analysis.models.iter().map(|m| m.share).sum();
    assert!((share_sum - 1.0).abs() < 1e-9, "shares partition step time: {share_sum}");
}

#[test]
fn blowup_dumps_a_flight_recorder_crash_report() {
    use smart_fluidnet::obs;
    let _g = hold();
    let path = std::env::temp_dir().join("sfn_chaos_crash_report.jsonl");
    let _ = std::fs::remove_file(&path);
    obs::flight::clear();
    obs::set_flight_enabled(true);
    obs::set_crash_file(path.to_str());

    // Poison every surrogate: the first corrupted step trips the sim's
    // blow-up guard, which must dump the recorder to the crash file.
    let (out, injected) = run_under(
        r#"{"seed": 3, "faults": [
            {"kind": "nan_output", "p": 1.0, "target": "chaos"}]}"#,
        12,
    );
    obs::set_crash_file(None);
    assert!(injected > 0);
    assert_survived(&out, 12);

    let report = std::fs::read_to_string(&path).expect("crash report written");
    let mut lines = report.lines();
    let header = lines.next().expect("non-empty report");
    assert!(header.contains("\"kind\":\"crash.report\""), "{header}");
    assert!(header.contains("\"reason\":\"sim."), "{header}");
    // The ring retains the moments leading up to the failure: the
    // injection that caused it and the blow-up itself, all parseable.
    assert!(report.contains("\"kind\":\"sim.blowup\""), "{report}");
    assert!(report.contains("\"kind\":\"fault.injected\""), "{report}");
    for line in report.lines() {
        assert!(obs::json::parse(line).is_ok(), "unparseable crash line: {line}");
    }
    let _ = std::fs::remove_file(&path);
}

/// One raw HTTP GET against the in-process metrics endpoint, returning
/// `(status line, body)`.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to metrics endpoint");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: chaos\r\n\r\n").as_bytes())
        .expect("send request");
    let mut buf = String::new();
    stream.read_to_string(&mut buf).expect("read response");
    let (head, body) = buf.split_once("\r\n\r\n").expect("response has a head");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

#[test]
fn live_metrics_observe_a_chaos_incident_end_to_end() {
    use smart_fluidnet::{metrics, obs};
    let _g = hold();

    // Short windows so the burn drains within the test, and an
    // effectively-infinite collector tick so the test's own
    // `collect_now` calls are the only live collector (keeps window
    // contents deterministic).
    metrics::init_global(metrics::Config {
        slot_millis: 250,
        slots: 40,
        fast_slots: 4,
        tick_millis: 600_000,
        ..Default::default()
    });
    let server = metrics::start_global("127.0.0.1:0").expect("bind ephemeral endpoint");
    let hub = metrics::global();

    // Each live series has one feeder: a healthy run of N steps raises
    // the step counter, the step-latency and DivNorm sample counts and
    // the roster's step tally by exactly N.
    let step_counts = || {
        let samples = |name| obs::histogram_snapshot(name).map_or(0, |h| h.count);
        [
            obs::counter_value("runtime.steps"),
            samples("runtime.step_secs"),
            samples("runtime.div_norm"),
            hub.roster().iter().map(|(_, stat)| stat.steps).sum(),
        ]
    };
    faults::install(None);
    let before = step_counts();
    let out = runtime(12).run(simulation());
    assert_survived(&out, 12);
    assert_eq!((out.rollbacks, out.degraded), (0, false), "a fault-free run stays healthy");
    let raised: Vec<u64> = step_counts().iter().zip(before).map(|(after, b)| after - b).collect();
    assert_eq!(raised, [12; 4], "steps, step_secs, div_norm and roster steps per 12-step run");

    // Incident: every model in the family corrupts on every inference.
    // The runtime quarantines the whole roster and finishes on the
    // degraded exact-solver tail — and the divergence-guard SLO must
    // burn through its 1% budget.
    faults::install(Some(
        faults::parse_plan(
            r#"{"seed": 5, "faults": [{"kind": "nan_output", "p": 1.0, "target": "chaos"}]}"#,
        )
        .expect("valid chaos plan"),
    ));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let out = runtime(12).run(simulation());
        assert_survived(&out, 12);
        hub.collect_now();
        if hub.health().degraded {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "SLOs never burned under a p=1 whole-family NaN storm: {:?}",
            hub.slo_states()
        );
    }

    // Mid-incident, with faults still armed: /metrics must serve a
    // valid exposition carrying the step-latency quantiles and the SLO
    // burn rates, /healthz must refuse, and the dashboard must render.
    let (status, body) = http_get(server.addr, "/metrics");
    assert!(status.contains(" 200 "), "{status}");
    let series = metrics::validate_exposition(&body).expect("valid exposition mid-incident");
    assert!(series >= 20, "only {series} series mid-incident:\n{body}");
    for needle in ["sfn_runtime_step_secs{window=", "sfn_slo_burn_rate{", "sfn_health_degraded 1"] {
        assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
    }
    let (status, body) = http_get(server.addr, "/healthz");
    assert!(status.contains(" 503 "), "healthz must refuse mid-incident: {status}");
    assert!(body.starts_with("degraded\n"), "{body}");
    let frame = smart_fluidnet::trace::top::frame(&server.addr.to_string(), false)
        .expect("sfn-top frame renders from the live endpoint");
    assert!(frame.contains("DEGRADED"), "dashboard must show the incident:\n{frame}");

    // Recovery: disarm and keep running healthy steps until the burn
    // leaves the fast window and /healthz serves 200 again.
    faults::install(None);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let out = runtime(12).run(simulation());
        assert_survived(&out, 12);
        std::thread::sleep(std::time::Duration::from_millis(300));
        hub.collect_now();
        if !hub.health().degraded {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "burn never drained after disarming: {:?}",
            hub.slo_states()
        );
    }
    let (status, body) = http_get(server.addr, "/healthz");
    assert!(status.contains(" 200 "), "healthz must recover: {status} {body}");
    assert_eq!(body, "ok\n");
    server.stop();
}

#[test]
fn env_schedule_from_sfn_faults_survives() {
    // The CI chaos job sets SFN_FAULTS to a seeded schedule; without
    // it this test is a no-op so the default `cargo test` run stays
    // deterministic.
    if std::env::var("SFN_FAULTS").map(|v| v.trim().is_empty()).unwrap_or(true) {
        return;
    }
    let _g = hold();
    faults::init_from_env();
    let out = runtime(20).run(simulation());
    assert_survived(&out, 20);
    faults::install(None);
}
