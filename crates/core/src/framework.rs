//! The online phase: `SmartFluidnet` as a user-facing framework.

use crate::artifacts::OfflineArtifacts;
use crate::config::OfflineConfig;
use crate::pipeline::build_offline;
use sfn_runtime::{KnnDatabase, RunOutcome, RuntimeConfig, RuntimeError, SmartRuntime};
use sfn_workload::InputProblem;

/// The Smart-fluidnet framework: offline artifacts plus the online
/// quality-aware runtime.
pub struct SmartFluidnet {
    artifacts: OfflineArtifacts,
}

impl SmartFluidnet {
    /// Runs the offline phase from scratch.
    pub fn build(cfg: &OfflineConfig) -> Self {
        Self {
            artifacts: build_offline(cfg),
        }
    }

    /// Builds with a file cache: artifacts keyed by the configuration
    /// are reused across processes (the bench harness relies on this
    /// so every table/figure shares one offline phase).
    pub fn build_cached(cfg: &OfflineConfig) -> Self {
        let path = OfflineArtifacts::cache_path(&cfg.cache_key());
        match OfflineArtifacts::load(&path) {
            Ok(artifacts) => return Self { artifacts },
            // A missing file is an ordinary cache miss; anything else
            // is a corrupted cache — recover by rebuilding from
            // scratch, which overwrites the bad file below.
            Err(e) if !e.is_not_found() => {
                sfn_obs::counter_add("artifacts.cache_rejected", 1);
                sfn_obs::event(sfn_obs::Level::Warn, "cache.corrupt")
                    .field_str("path", &path.display().to_string())
                    .field_str("error", &e.to_string())
                    .emit();
                sfn_faults::note_recovery("artifact-cache");
            }
            Err(_) => {}
        }
        let artifacts = build_offline(cfg);
        if let Err(e) = artifacts.save(&path) {
            OfflineArtifacts::write_failed(&path, &e);
        }
        Self { artifacts }
    }

    /// Wraps existing artifacts.
    pub fn from_artifacts(artifacts: OfflineArtifacts) -> Self {
        Self { artifacts }
    }

    /// The offline artifacts.
    pub fn artifacts(&self) -> &OfflineArtifacts {
        &self.artifacts
    }

    /// The derived requirement `U(q, t)`.
    pub fn requirement(&self) -> (f64, f64) {
        self.artifacts.requirement
    }

    /// Creates the §6.2 runtime for `total_steps`-step simulations with
    /// the default check interval and the derived quality requirement.
    pub fn runtime(&self, total_steps: usize) -> SmartRuntime {
        self.runtime_with(RuntimeConfig {
            total_steps,
            quality_target: self.artifacts.requirement.0,
            ..Default::default()
        })
    }

    /// Creates a runtime with a custom configuration (check-interval
    /// sensitivity studies, explicit quality targets, no-MLP mode …).
    ///
    /// # Panics
    /// Panics where [`SmartFluidnet::try_runtime_with`] would return an
    /// error (validated artifacts never do).
    pub fn runtime_with(&self, config: RuntimeConfig) -> SmartRuntime {
        self.try_runtime_with(config).expect("runtime from artifacts")
    }

    /// Fallible variant of [`SmartFluidnet::runtime_with`]: a KNN
    /// database or candidate set that cannot be constructed (possible
    /// with hand-built or tampered artifacts) surfaces as a typed
    /// [`RuntimeError`].
    pub fn try_runtime_with(&self, config: RuntimeConfig) -> Result<SmartRuntime, RuntimeError> {
        SmartRuntime::try_new(
            self.artifacts.selected.clone(),
            KnnDatabase::new(self.artifacts.knn_pairs.clone())?,
            config,
        )
    }

    /// Runs one input problem under the adaptive runtime.
    pub fn run_problem(&self, problem: &InputProblem, total_steps: usize) -> RunOutcome {
        let mut rt = self.runtime(total_steps);
        rt.run(problem.simulation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_sim::quality_loss;
    use sfn_workload::ProblemSet;

    fn framework() -> SmartFluidnet {
        SmartFluidnet::build_cached(&OfflineConfig::quick())
    }

    #[test]
    fn end_to_end_adaptive_run() {
        let fw = framework();
        let set = ProblemSet::evaluation(16, 1);
        let problem = set.problem(0);
        let steps = 16;
        let out = fw.run_problem(&problem, steps);
        assert!(out.density.all_finite());
        assert_eq!(out.cum_div_norm.len(), steps);
        let nn_steps: usize = out.steps_per_model.iter().sum();
        if out.restarted {
            assert!(nn_steps < steps, "restart should abandon the NN run early");
        } else {
            assert_eq!(nn_steps, steps);
        }

        // Quality against the PCG reference is finite and sane.
        let (reference, _) = problem.reference(steps);
        let q = quality_loss(&out.density, &reference);
        assert!(q.is_finite());
        if out.restarted {
            assert!(q < 1e-6, "restarted run must match PCG, got {q}");
        }
    }

    #[test]
    fn cached_build_is_stable() {
        let a = framework();
        let b = framework();
        assert_eq!(
            a.artifacts().selected.len(),
            b.artifacts().selected.len()
        );
        assert_eq!(a.requirement(), b.requirement());
    }

    #[test]
    fn runtime_respects_custom_config() {
        let fw = framework();
        let rt = fw.runtime_with(RuntimeConfig {
            total_steps: 10,
            check_interval: 5,
            quality_target: 0.5,
            tolerance: 0.1,
            use_mlp: false,
            adaptive: true,
        });
        assert!(!rt.candidates().is_empty());
    }
}
