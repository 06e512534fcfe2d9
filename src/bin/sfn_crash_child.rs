//! Crash-harness child: one deterministic, durably-checkpointed
//! scheduler run, spawned (and SIGKILLed) by the supervisor tests in
//! `tests/crash_recovery.rs` and `tests/chaos.rs`.
//!
//! Environment:
//!
//! | variable          | meaning                                         |
//! |-------------------|-------------------------------------------------|
//! | `SFN_CRASH_STEPS` | total simulation steps (default 24)             |
//! | `SFN_CRASH_OUT`   | file for the final state, encoded as SFNC       |
//! | `SFN_CKPT_*`      | durable checkpointing (see `sfn-ckpt`)          |
//! | `SFN_FAULTS`      | fault schedule; `crash` faults SIGKILL the run  |
//!
//! The grid is 16×16.
//!
//! The run is deterministic under `SFN_THREADS=1`: the supervisor
//! compares the `SFN_CRASH_OUT` bytes of a killed-and-resumed run
//! against an uninterrupted one, bit for bit.

use smart_fluidnet::ckpt;
use smart_fluidnet::faults;
use smart_fluidnet::grid::CellFlags;
use smart_fluidnet::nn::Network;
use smart_fluidnet::obs;
use smart_fluidnet::runtime::{
    CandidateModel, DurableCheckpointer, KnnDatabase, RuntimeConfig, SmartRuntime,
};
use smart_fluidnet::sim::{SimConfig, Simulation};
use smart_fluidnet::surrogate::yang_spec;

fn candidate(name: &str, width: usize, seed: u64, prob: f64, q: f64) -> CandidateModel {
    let mut net = Network::from_spec(&yang_spec(width), seed).expect("valid spec");
    CandidateModel {
        name: name.into(),
        saved: net.save(),
        probability: prob,
        exec_time: 0.1,
        quality_loss: q,
    }
}

fn main() {
    obs::init();
    faults::init_from_env();
    let steps = obs::env::knob(&obs::env::process, "SFN_CRASH_STEPS", 24usize);
    let n = 16;

    // The same seeded, untrained candidate family the chaos suite uses:
    // fully deterministic, no model artifacts needed on disk.
    let candidates = vec![
        candidate("crash-a", 2, 1, 0.9, 0.05),
        candidate("crash-b", 3, 2, 0.7, 0.03),
        candidate("crash-c", 4, 3, 0.5, 0.01),
    ];
    let knn = KnnDatabase::new((0..64).map(|i| (i as f64 * 10.0, i as f64 * 0.001)).collect())
        .expect("valid KNN pairs");
    let mut rt = SmartRuntime::try_new(
        candidates,
        knn,
        RuntimeConfig {
            total_steps: steps,
            // Generous target: only injected faults disturb the run.
            quality_target: 1.0,
            ..Default::default()
        },
    )
    .expect("loadable candidates");

    let sim = Simulation::new(SimConfig::plume(n), CellFlags::smoke_box(n, n));
    let mut durable = DurableCheckpointer::from_env().expect("usable checkpoint directory");
    let (out, final_sim) = rt.run_with_checkpoints(sim, durable.as_mut());

    // The final state, in the same checksummed SFNC encoding the
    // checkpoints use — the supervisor's bit-identity oracle.
    if let Ok(path) = std::env::var("SFN_CRASH_OUT") {
        if !path.trim().is_empty() {
            let doc = ckpt::CheckpointDoc {
                step: final_sim.steps_done() as u64,
                snapshot: final_sim.snapshot(),
                tracker: ckpt::TrackerState {
                    series: out.cum_div_norm.clone(),
                    warmup_steps: 0,
                    skip_per_interval: 0,
                },
                scheduler: None,
            };
            let bytes = ckpt::encode(&doc).expect("final state encodes");
            std::fs::write(&path, bytes).expect("final state written");
        }
    }
    obs::flush_trace();
    println!(
        "sfn_crash_child done steps={} resumed_from={} rollbacks={} restarted={} degraded={}",
        steps,
        out.resumed_from.map_or(-1i64, |s| s as i64),
        out.rollbacks,
        out.restarted,
        out.degraded,
    );
}
