//! End-to-end integration: the full offline pipeline plus the adaptive
//! online runtime, exercised across crates exactly the way the bench
//! harness uses them.

use smart_fluidnet::core::{OfflineConfig, SmartFluidnet};
use smart_fluidnet::nn::Network;
use smart_fluidnet::runtime::RuntimeConfig;
use smart_fluidnet::sim::quality_loss;
use smart_fluidnet::surrogate::NeuralProjector;
use smart_fluidnet::workload::ProblemSet;

fn framework() -> SmartFluidnet {
    SmartFluidnet::build_cached(&OfflineConfig::quick())
}

#[test]
fn adaptive_runtime_meets_target_at_least_as_often_as_fixed_fastest() {
    let fw = framework();
    let (q_target, _) = fw.requirement();
    let steps = 16;
    assert!(!fw.artifacts().selected.is_empty());
    let set = ProblemSet::evaluation(16, 6);

    // Fixed baseline: the fastest (least accurate) selected model alone.
    let fastest = fw
        .artifacts()
        .selected
        .iter()
        .max_by(|a, b| a.quality_loss.total_cmp(&b.quality_loss))
        .expect("candidates");

    let mut adaptive_hits = 0usize;
    let mut fixed_hits = 0usize;
    for problem in set.iter() {
        let (reference, _) = problem.reference(steps);

        let out = fw.run_problem(&problem, steps);
        if quality_loss(&out.density, &reference) <= q_target * 1.05 {
            adaptive_hits += 1;
        }

        let net = Network::load(&fastest.saved, 0).unwrap();
        let mut proj = NeuralProjector::new(net, fastest.name.clone());
        let mut sim = problem.simulation();
        sim.run(steps, &mut proj);
        if sim.is_healthy() && quality_loss(sim.density(), &reference) <= q_target * 1.05 {
            fixed_hits += 1;
        }
    }
    assert!(
        adaptive_hits >= fixed_hits,
        "adaptive {adaptive_hits}/6 vs fixed-fastest {fixed_hits}/6"
    );
    assert!(
        adaptive_hits >= 3,
        "adaptive runtime met the target only {adaptive_hits}/6 times"
    );
}

#[test]
fn check_interval_is_respected() {
    let fw = framework();
    for interval in [4usize, 8] {
        let mut rt = fw.runtime_with(RuntimeConfig {
            total_steps: 24,
            check_interval: interval,
            quality_target: fw.requirement().0,
            ..Default::default()
        });
        let out = rt.run(ProblemSet::evaluation(16, 1).problem(0).simulation());
        for e in &out.events {
            use smart_fluidnet::runtime::SchedulerEvent;
            let step = match e {
                SchedulerEvent::Switch { step, .. } => *step,
                SchedulerEvent::Restart { step, .. } => *step,
                SchedulerEvent::Quarantine { step, .. } => *step,
                SchedulerEvent::Degrade { step, .. } => *step,
                // A rollback is pinned to the corrupted step, not the
                // checkpoint grid.
                SchedulerEvent::Rollback { .. } => continue,
            };
            assert_eq!(
                step % interval,
                0,
                "decision at step {step} violates interval {interval}"
            );
        }
    }
}

#[test]
fn offline_artifacts_are_internally_consistent() {
    let fw = framework();
    let art = fw.artifacts();
    // Every selected candidate's weights load and run.
    for c in &art.selected {
        let net = Network::load(&c.saved, 0).expect("candidate loads");
        assert!(net.param_count() > 0);
        assert!((0.0..=1.0).contains(&c.probability), "{}", c.probability);
    }
    // Candidate indices point into measurements and form the front.
    for &i in &art.candidate_indices {
        assert!(i < art.measurements.len());
    }
    // KNN pairs are finite and plausible.
    for &(cdn, q) in &art.knn_pairs {
        assert!(cdn.is_finite() && q.is_finite());
        assert!(q >= 0.0);
    }
    // MLP loss curve recorded for Figure 5.
    assert!(!art.mlp_loss_curve.is_empty());
}

#[test]
fn runtime_without_mlp_still_completes() {
    let fw = framework();
    let mut rt = fw.runtime_with(RuntimeConfig {
        total_steps: 16,
        quality_target: fw.requirement().0,
        use_mlp: false,
        ..Default::default()
    });
    let out = rt.run(ProblemSet::evaluation(16, 2).problem(1).simulation());
    assert!(out.density.all_finite());
    let total_steps: usize = out.steps_per_model.iter().sum();
    assert!(total_steps >= 1);
}
