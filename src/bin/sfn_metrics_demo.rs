//! `sfn_metrics_demo` — a scriptable two-phase run for exercising the
//! live metrics endpoint end to end (CI's chaos scrape step drives it).
//!
//! Phase 1 (incident): with the `SFN_FAULTS` schedule armed, chaos
//! runs are repeated (for up to 60 s) until an SLO burns and `/healthz`
//! turns degraded, then the process holds there for 10 s so an
//! external scraper can observe the incident.
//!
//! Phase 2 (recovery): faults are disarmed and healthy runs continue
//! (for up to 120 s) until the burn drains out of the fast window and
//! `/healthz` is ok again, followed by a second 10 s hold for the final
//! scrape. Exit code 0 means both transitions were observed; 1 means a
//! phase timed out; 2 means setup failed (no `SFN_METRICS_ADDR`, bad
//! bind…).

use smart_fluidnet::grid::CellFlags;
use smart_fluidnet::nn::Network;
use smart_fluidnet::runtime::{CandidateModel, KnnDatabase, RuntimeConfig, SmartRuntime};
use smart_fluidnet::sim::{SimConfig, Simulation};
use smart_fluidnet::surrogate::yang_spec;
use smart_fluidnet::{faults, metrics};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// How long each phase's final state is held for an external scraper.
const HOLD: Duration = Duration::from_secs(10);
/// Longest wait for the incident to degrade `/healthz`.
const DEGRADE_TIMEOUT: Duration = Duration::from_secs(60);
/// Longest wait for the burn to drain after faults are disarmed.
const RECOVERY_TIMEOUT: Duration = Duration::from_secs(120);

fn candidate(name: &str, width: usize, seed: u64, prob: f64, q: f64) -> CandidateModel {
    let mut net = Network::from_spec(&yang_spec(width), seed).expect("buildable spec");
    CandidateModel {
        name: name.into(),
        saved: net.save(),
        probability: prob,
        exec_time: 0.1,
        quality_loss: q,
    }
}

/// One short run on the chaos model family (names match the `chaos`
/// target substring CI's `SFN_FAULTS` schedules use).
fn one_run(total_steps: usize) {
    let candidates = vec![
        candidate("chaos-a", 2, 1, 0.9, 0.05),
        candidate("chaos-b", 3, 2, 0.7, 0.03),
        candidate("chaos-c", 4, 3, 0.5, 0.01),
    ];
    let knn = KnnDatabase::new((0..64).map(|i| (i as f64 * 10.0, i as f64 * 0.001)).collect())
        .expect("valid KNN pairs");
    let mut rt = SmartRuntime::try_new(
        candidates,
        knn,
        RuntimeConfig { total_steps, quality_target: 1.0, ..Default::default() },
    )
    .expect("loadable candidates");
    let out = rt.run(Simulation::new(SimConfig::plume(16), CellFlags::smoke_box(16, 16)));
    assert!(out.density.all_finite(), "chaos run must survive");
}

/// Runs until `hub` health matches `want_degraded` (forcing a collector
/// tick between runs) or `timeout` passes.
fn drive_until(want_degraded: bool, timeout: Duration) -> bool {
    let hub = metrics::global();
    let deadline = Instant::now() + timeout;
    loop {
        hub.collect_now();
        if hub.health().degraded == want_degraded {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        one_run(10);
        std::thread::sleep(Duration::from_millis(200));
    }
}

fn main() -> ExitCode {
    sfn_obs::init();
    faults::init_from_env();
    let Some(server) = metrics::serve_from_env() else {
        eprintln!(
            "sfn_metrics_demo: SFN_METRICS_ADDR must name a bindable address (e.g. 127.0.0.1:9900)"
        );
        return ExitCode::from(2);
    };
    println!("serving http://{} (hold {}s per phase)", server.addr, HOLD.as_secs());

    println!("phase 1: chaos runs until an SLO burns…");
    if !drive_until(true, DEGRADE_TIMEOUT) {
        eprintln!("sfn_metrics_demo: no SLO burned — is SFN_FAULTS armed?");
        return ExitCode::FAILURE;
    }
    for reason in metrics::global().health().reasons {
        println!("degraded: {reason}");
    }
    std::thread::sleep(HOLD);

    println!("phase 2: faults disarmed, running until /healthz recovers…");
    faults::install(None);
    if !drive_until(false, RECOVERY_TIMEOUT) {
        eprintln!("sfn_metrics_demo: burn never drained out of the fast window");
        return ExitCode::FAILURE;
    }
    println!("recovered; holding for the final scrape");
    std::thread::sleep(HOLD);
    server.stop();
    ExitCode::SUCCESS
}
