//! The observability layers' hot-path contract. With `SFN_TRACE_FILE`
//! unset and profiling disabled (the default), the `KernelScope` /
//! `record_work` instrumentation threaded through every kernel must
//! cost under 2% of a 64² reference step, and so must the disabled
//! `sfn-obs` span and event probes; a healthy step must leave the
//! always-on flight recorder empty. The live-metrics layer gets the
//! same treatment: with an endpoint serving, the per-step path — the
//! runtime's `runtime.div_norm` record plus one `runtime.step` event,
//! rendered and fed through the installed `sfn-metrics` bridge — must
//! stay under 2% of a step, with no scraper attached and while
//! `/metrics` is being hammered.
//!
//! Measured directly rather than by diffing two builds: the per-call
//! cost of a *disabled* probe times the number of probes a real step
//! hits must stay below 2% of that step's wall time. Both sides come
//! from the same process on the same machine, so the ratio is stable
//! even on a noisy shared runner.

use sfn_obs::Level;
use sfn_sim::{ExactProjector, SimConfig, Simulation};
use sfn_solver::{MicPreconditioner, PcgSolver};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The `sfn-obs` switches, event observers and flight ring are
/// process-global: tests that set or read them hold this lock.
fn obs_state() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn reference_sim() -> (Simulation, ExactProjector<PcgSolver<MicPreconditioner>>) {
    let n = 64;
    let cfg = SimConfig::plume(n);
    let flags = sfn_grid::CellFlags::smoke_box(n, n);
    let sim = Simulation::new(cfg, flags);
    let proj = ExactProjector::new(PcgSolver::new(MicPreconditioner::default(), 1e-6, 10_000));
    (sim, proj)
}

/// Wall time of one reference step: the median of 5 after a warm-up.
fn median_step_secs() -> f64 {
    let (mut sim, mut proj) = reference_sim();
    sim.step(&mut proj);
    let mut step_secs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            sim.step(&mut proj);
            t.elapsed().as_secs_f64()
        })
        .collect();
    step_secs.sort_by(f64::total_cmp);
    step_secs[step_secs.len() / 2]
}

#[test]
fn disabled_instrumentation_costs_under_two_percent() {
    assert!(
        std::env::var("SFN_TRACE_FILE").is_err(),
        "this guard measures the default path; run it without SFN_TRACE_FILE"
    );
    sfn_prof::set_enabled(false);

    // How many instrumented call sites does one reference step hit?
    // Count them with profiling on: every KernelScope::enter and every
    // worker record_work lands in the registry as a call or a merge.
    sfn_prof::reset();
    sfn_prof::set_enabled(true);
    let (mut sim, mut proj) = reference_sim();
    sim.step(&mut proj);
    let calls_per_step: u64 = sfn_prof::snapshot().iter().map(|(_, t)| t.calls).sum();
    sfn_prof::set_enabled(false);
    sfn_prof::reset();
    assert!(calls_per_step > 0, "reference step hit no instrumented kernels");

    let step = median_step_secs();

    // Per-call cost of a disabled scope + one disabled record_work —
    // strictly more work than any real disabled call site does.
    const CALLS: u32 = 200_000;
    let t = Instant::now();
    for _ in 0..CALLS {
        let scope = sfn_prof::KernelScope::enter("overhead_guard");
        sfn_prof::record_work(1, 1, 1);
        if scope.active() {
            scope.record(1, 1, 1);
        }
    }
    let per_call = t.elapsed().as_secs_f64() / f64::from(CALLS);

    let overhead = per_call * calls_per_step as f64;
    let ratio = overhead / step;
    assert!(
        ratio < 0.02,
        "disabled instrumentation too hot: {calls_per_step} calls × {:.1} ns = {:.3} ms \
         against a {:.3} ms step ({:.2}% > 2%)",
        per_call * 1e9,
        overhead * 1e3,
        step * 1e3,
        ratio * 100.0
    );
}

/// Puts `sfn-obs` back in its default state: metrics off, no event
/// observer (a metrics test may have left its bridge installed).
fn obs_defaults() {
    sfn_obs::enable_metrics(false);
    sfn_obs::clear_event_observers();
    sfn_obs::reset();
}

#[test]
fn disabled_obs_probes_cost_under_two_percent() {
    let _obs = obs_state();

    // How many span/event probes does one reference step hit? Count
    // them with everything on: every span (sfn-prof kernel scopes
    // included) and every histogram_record lands as a histogram sample,
    // and every event at any level reaches an observer. (The step's
    // counter updates sit in the same metrics-gated block as its solver
    // histograms.)
    sfn_obs::reset();
    sfn_obs::enable_metrics(true);
    let events = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&events);
    sfn_obs::add_event_observer(Box::new(move |_| {
        seen.fetch_add(1, Ordering::Relaxed);
    }));
    let (mut sim, mut proj) = reference_sim();
    sim.step(&mut proj);
    let samples: u64 = sfn_obs::histograms_snapshot().iter().map(|(_, h)| h.count).sum();
    let events = events.load(Ordering::Relaxed);
    obs_defaults();
    assert!(
        samples > 0 && events > 0,
        "reference step hit no probes ({samples} samples, {events} events)"
    );
    let probes = samples + events;

    assert!(
        !sfn_obs::event_enabled(Level::Trace),
        "this guard measures the default path; run it without SFN_TRACE_FILE or SFN_LOG=trace"
    );
    let step = median_step_secs();

    // Per-probe cost of one disabled span plus one disabled event with
    // three fields — more work than any single real probe does.
    const CALLS: u32 = 200_000;
    let t = Instant::now();
    for i in 0..CALLS {
        let _span = sfn_obs::span!("overhead_guard");
        sfn_obs::event(Level::Trace, "overhead_guard")
            .field_u64("i", u64::from(i))
            .field_f64("x", 1.0)
            .field_str("s", "probe")
            .emit();
    }
    let per_probe = t.elapsed().as_secs_f64() / f64::from(CALLS);

    let overhead = per_probe * probes as f64;
    let ratio = overhead / step;
    assert!(
        ratio < 0.02,
        "disabled sfn-obs probes too hot: {probes} probes × {:.1} ns = {:.3} ms against a \
         {:.3} ms step ({:.2}% > 2%)",
        per_probe * 1e9,
        overhead * 1e3,
        step * 1e3,
        ratio * 100.0
    );
}

#[test]
fn healthy_steps_leave_the_flight_recorder_empty() {
    let _obs = obs_state();
    obs_defaults();
    assert!(sfn_obs::flight_enabled(), "the flight recorder is on by default");

    // Nine steps cross a diagnostics step (every 8th); the recorder
    // keeps info+ events only, and a healthy step emits none.
    let (mut sim, mut proj) = reference_sim();
    sfn_obs::flight::clear();
    for _ in 0..9 {
        sim.step(&mut proj);
    }
    assert_eq!(sfn_obs::flight::snapshot(), Vec::<String>::new());
}

/// One `/metrics` scrape against a serving endpoint; panics unless the
/// response is a 200 and returns the exposition body.
fn scrape_metrics(addr: std::net::SocketAddr) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to metrics endpoint");
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: overhead\r\n\r\n").expect("send scrape");
    let mut buf = String::new();
    stream.read_to_string(&mut buf).expect("read scrape response");
    let (head, body) = buf.split_once("\r\n\r\n").expect("response has a head");
    assert!(head.starts_with("HTTP/1.1 200"), "scrape refused: {head}");
    body.to_string()
}

/// Measures the per-step cost of the whole live-metrics hot path over
/// `calls` iterations: what the runtime's `timed_step` does once the
/// bridge is installed — one `runtime.div_norm` sample and one
/// `runtime.step` event, which the bridge parses into the step-latency
/// histogram, the step counter and the roster. Asserts that every
/// event reached the bridge, so the measured path is the live one.
fn live_step_cost(calls: u32) -> f64 {
    let steps_before = sfn_obs::counter_value("runtime.steps");
    let t = Instant::now();
    for i in 0..calls {
        let secs = 1e-3 + f64::from(i % 7) * 1e-4;
        sfn_obs::histogram_record("runtime.div_norm", secs * 1e-3);
        sfn_obs::event(Level::Trace, "runtime.step")
            .field_u64("step", u64::from(i) + 1)
            .field_str("model", "overhead-guard")
            .field_f64("secs", secs)
            .field_f64("proj_secs", secs * 0.5)
            .field_f64("div_norm", secs * 1e-3)
            .emit();
    }
    let per_call = t.elapsed().as_secs_f64() / f64::from(calls);
    assert_eq!(
        sfn_obs::counter_value("runtime.steps") - steps_before,
        u64::from(calls),
        "every runtime.step event must reach the metrics bridge"
    );
    per_call
}

#[test]
fn live_metrics_hot_path_costs_under_two_percent() {
    use std::sync::atomic::AtomicBool;

    let _obs = obs_state();
    let server = sfn_metrics::start_global("127.0.0.1:0").expect("bind ephemeral endpoint");
    assert!(sfn_obs::event_enabled(Level::Trace), "the endpoint installs the event bridge");

    // Wall time of a reference step in the metrics-live world — the
    // event bridge is installed, as in a real run.
    let step = median_step_secs();

    // Phase 1: endpoint live, no scraper attached. One div_norm sample
    // and one bridged runtime.step event per simulation step is the
    // entire live-metrics hot path.
    let per_call = live_step_cost(100_000);
    let ratio = per_call / step;
    assert!(
        ratio < 0.02,
        "live metrics hot path too hot with no scraper: {:.1} ns/step against a {:.3} ms step \
         ({:.2}% > 2%)",
        per_call * 1e9,
        step * 1e3,
        ratio * 100.0
    );

    // Phase 2: scrape under load. A scraper hammers /metrics (every
    // response must stay a valid exposition) while the hot path is
    // re-measured; rendering holds the hub lock, so this is the
    // worst-case contention a real deployment sees.
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        let addr = server.addr;
        std::thread::spawn(move || {
            let mut scrapes = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let body = scrape_metrics(addr);
                sfn_metrics::validate_exposition(&body).expect("exposition stays valid under load");
                scrapes += 1;
            }
            scrapes
        })
    };
    let per_call_scraped = live_step_cost(100_000);
    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread");
    assert!(scrapes > 0, "scraper never completed a scrape during the load window");

    let ratio = per_call_scraped / step;
    assert!(
        ratio < 0.02,
        "metrics hot path too hot while scraped ({scrapes} scrapes): {:.1} ns/step against a \
         {:.3} ms step ({:.2}% > 2%)",
        per_call_scraped * 1e9,
        step * 1e3,
        ratio * 100.0
    );
    server.stop();
}
