//! Shared run primitives for the experiment binaries.

use sfn_grid::Field2;
use sfn_nn::network::SavedModel;
use sfn_runtime::{RunOutcome, RuntimeConfig};
use sfn_sim::{quality_loss, ExactProjector};
use sfn_solver::{MicPreconditioner, PcgSolver};
use sfn_surrogate::{
    train_projection_model, yang_default, NeuralProjector, ProjectionDataset, TrainConfig,
};
use sfn_workload::{InputProblem, ProblemSet};
use smart_fluidnet_core::{OfflineConfig, SmartFluidnet};

/// One simulation run's bench-relevant outcome.
#[derive(Debug, Clone, Copy)]
pub struct RunRecord {
    /// Quality loss (Eq. 3) against the PCG reference.
    pub qloss: f64,
    /// Seconds spent in the pressure projection.
    pub secs: f64,
    /// Whether the adaptive runtime fell back to PCG.
    pub restarted: bool,
}

impl sfn_obs::json::ToJson for RunRecord {
    fn to_json_value(&self) -> sfn_obs::json::Value {
        sfn_obs::json::obj([
            ("qloss", self.qloss.to_json_value()),
            ("secs", self.secs.to_json_value()),
            ("restarted", self.restarted.to_json_value()),
        ])
    }
}

impl sfn_obs::json::FromJson for RunRecord {
    fn from_json_value(
        v: &sfn_obs::json::Value,
    ) -> Result<Self, sfn_obs::json::JsonError> {
        Ok(RunRecord {
            qloss: v.field("qloss")?,
            secs: v.field("secs")?,
            restarted: v.field("restarted")?,
        })
    }
}

/// The standard exact projector (MICCG(0), the paper's baseline).
pub fn pcg_projector() -> ExactProjector<PcgSolver<MicPreconditioner>> {
    ExactProjector::labelled(
        PcgSolver::new(MicPreconditioner::default(), 1e-6, 200_000),
        "pcg",
    )
}

/// Runs the PCG reference, returning the final density and projection
/// seconds.
pub fn run_reference(problem: &InputProblem, steps: usize) -> (Field2, f64) {
    let mut sim = problem.simulation();
    let mut proj = pcg_projector();
    let stats = sim.run(steps, &mut proj);
    let secs = stats.iter().map(|s| s.projection_time.as_secs_f64()).sum();
    (sim.density().clone(), secs)
}

/// Runs a fixed neural model over one problem.
pub fn run_fixed(
    saved: &SavedModel,
    name: &str,
    problem: &InputProblem,
    steps: usize,
    reference: &Field2,
) -> RunRecord {
    let mut proj = NeuralProjector::try_from_saved(saved, name).expect("model snapshot loads");
    let mut sim = problem.simulation();
    let stats = sim.run(steps, &mut proj);
    let secs = stats.iter().map(|s| s.projection_time.as_secs_f64()).sum();
    let qloss = if sim.is_healthy() {
        quality_loss(sim.density(), reference)
    } else {
        f64::INFINITY
    };
    RunRecord {
        qloss,
        secs,
        restarted: false,
    }
}

/// Runs the adaptive Smart-fluidnet runtime over one problem.
pub fn run_smart(
    fw: &SmartFluidnet,
    problem: &InputProblem,
    steps: usize,
    reference: &Field2,
    config: Option<RuntimeConfig>,
) -> (RunRecord, RunOutcome) {
    let cfg = config.unwrap_or(RuntimeConfig {
        total_steps: steps,
        quality_target: fw.requirement().0,
        ..Default::default()
    });
    let mut rt = fw.runtime_with(RuntimeConfig {
        total_steps: steps,
        ..cfg
    });
    let out = rt.run(problem.simulation());
    let secs: f64 = out.time_per_model.iter().sum();
    let record = RunRecord {
        qloss: quality_loss(&out.density, reference),
        // A restart pays the full PCG projection cost on top of the
        // wasted neural attempts.
        secs: secs + out.restart_time,
        restarted: out.restarted,
    };
    sfn_obs::event(sfn_obs::Level::Debug, "bench.run")
        .field_f64("qloss", record.qloss)
        .field_f64("secs", record.secs)
        .field_bool("restarted", record.restarted)
        .field_u64("switches", out.events.len() as u64)
        .emit();
    (record, out)
}

/// Evaluation problems at a grid size.
pub fn problems_at(grid: usize, count: usize) -> Vec<InputProblem> {
    ProblemSet::evaluation(grid, count).iter().collect()
}

/// Runs PCG references for a problem list in parallel.
pub fn references_for(problems: &[InputProblem], steps: usize) -> Vec<(Field2, f64)> {
    sfn_par::map(problems, |p| run_reference(p, steps))
}

/// Trains (and caches) the Yang-style baseline on the same dataset the
/// pipeline used, for Table 1.
pub fn yang_baseline(cfg: &OfflineConfig) -> SavedModel {
    let path = smart_fluidnet_core::OfflineArtifacts::cache_path(&format!(
        "yang-{}",
        cfg.cache_key()
    ));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(saved) = sfn_obs::json::from_json_str::<SavedModel>(&text) {
            return saved;
        }
    }
    let set = ProblemSet::training(cfg.train_grid, cfg.train_problems);
    let dataset = ProjectionDataset::generate(&set, cfg.train_steps, cfg.capture_every);
    let (mut net, _) = train_projection_model(
        &yang_default(),
        &dataset,
        &TrainConfig {
            epochs: cfg.train_epochs,
            learning_rate: cfg.learning_rate,
            seed: cfg.seed ^ 0xFA46,
            ..Default::default()
        },
    );
    let saved = net.save();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).ok();
    }
    let cached = std::fs::write(&path, sfn_obs::json::to_json_string(&saved));
    if let Err(e) = cached {
        sfn_obs::event(sfn_obs::Level::Warn, "cache.write_failed")
            .field_str("path", &path.display().to_string())
            .field_str("error", &e.to_string())
            .emit();
    }
    saved
}

/// A realistic pressure right-hand side: the divergence after a few
/// buoyancy steps (Table 4 solves it, so the PCG FLOP count sees a
/// representative spectrum, not white noise).
pub fn representative_divergence(grid: usize) -> (sfn_grid::CellFlags, Field2) {
    let problem = ProblemSet::evaluation(grid, 1).problem(0);
    let mut sim = problem.simulation();
    let mut proj = pcg_projector();
    sim.run(4, &mut proj);
    // One more un-projected force step to get a non-trivial divergence.
    let flags = sim.flags().clone();
    let mut vel = sim.velocity().clone();
    sfn_sim::forces::add_buoyancy(&mut vel, sim.density(), &flags, 1.0, 0.5);
    let div = vel.divergence(&flags);
    (flags, div)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_nn::Network;

    #[test]
    fn reference_and_fixed_runs_work() {
        let problems = problems_at(16, 1);
        let (reference, secs) = run_reference(&problems[0], 8);
        assert!(secs > 0.0);
        assert!(reference.all_finite());
        let mut net = Network::from_spec(&yang_default(), 1).unwrap();
        let saved = net.save();
        let rec = run_fixed(&saved, "yang", &problems[0], 8, &reference);
        assert!(rec.qloss.is_finite());
        assert!(rec.secs > 0.0);
    }

    #[test]
    fn representative_divergence_is_nontrivial() {
        let (flags, div) = representative_divergence(16);
        assert_eq!(flags.nx(), 16);
        assert!(div.max_abs() > 1e-9, "divergence {:.3e}", div.max_abs());
    }
}
