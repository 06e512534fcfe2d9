//! Measuring generated models: (time cost, quality loss) per model —
//! the data behind Figure 3's scatter plot.
//!
//! Quality loss is Eq. 3 (mean absolute smoke-density difference
//! against the PCG reference run); time cost is the measured wall time
//! of the model's pressure inferences over a full simulation, which is
//! how the paper collects "the quality loss and execution time for
//! each model … during the model construction".

use crate::family::GeneratedModel;
use sfn_grid::Field2;
use sfn_nn::network::SavedModel;
use sfn_nn::Network;
use sfn_sim::{quality_loss, ExactProjector, PressureProjector};
use sfn_solver::{MicPreconditioner, PcgSolver};
use sfn_surrogate::{train_network, NeuralProjector, ProjectionDataset, TrainConfig};
use sfn_workload::{InputProblem, ProblemSet};

/// One model's measured behaviour.
#[derive(Debug, Clone)]
pub struct ModelMeasurement {
    /// Family index of the model.
    pub id: usize,
    /// Family name (`M<id>`).
    pub name: String,
    /// Mean projection wall time per simulation (seconds).
    pub time_cost: f64,
    /// Mean quality loss (Eq. 3) against the PCG reference.
    pub quality_loss: f64,
    /// Analytic FLOPs per projection at the evaluation grid size.
    pub flops_per_step: u64,
    /// Trained weights.
    pub saved: SavedModel,
    /// Per-problem `(quality loss, projection seconds)` — the §5.1
    /// execution records.
    pub per_problem: Vec<(f64, f64)>,
}

impl sfn_obs::json::ToJson for ModelMeasurement {
    fn to_json_value(&self) -> sfn_obs::json::Value {
        sfn_obs::json::obj([
            ("id", self.id.to_json_value()),
            ("name", self.name.to_json_value()),
            ("time_cost", self.time_cost.to_json_value()),
            ("quality_loss", self.quality_loss.to_json_value()),
            ("flops_per_step", self.flops_per_step.to_json_value()),
            ("saved", self.saved.to_json_value()),
            ("per_problem", self.per_problem.to_json_value()),
        ])
    }
}

impl sfn_obs::json::FromJson for ModelMeasurement {
    fn from_json_value(
        v: &sfn_obs::json::Value,
    ) -> Result<Self, sfn_obs::json::JsonError> {
        Ok(ModelMeasurement {
            id: v.field("id")?,
            name: v.field("name")?,
            time_cost: v.field("time_cost")?,
            quality_loss: v.field("quality_loss")?,
            flops_per_step: v.field("flops_per_step")?,
            saved: v.field("saved")?,
            per_problem: v.field("per_problem")?,
        })
    }
}

/// Shared evaluation state: problems plus their PCG reference runs.
pub struct EvalContext {
    problems: Vec<InputProblem>,
    reference_densities: Vec<Field2>,
    reference_times: Vec<f64>,
    /// Time steps per simulation.
    pub steps: usize,
}

impl EvalContext {
    /// Runs the PCG reference simulation for every problem in `set`.
    pub fn new(set: &ProblemSet, steps: usize) -> Self {
        let problems: Vec<InputProblem> = set.iter().collect();
        let reference: Vec<(Field2, f64)> = sfn_par::map(&problems, |p| {
                let mut sim = p.simulation();
                let mut proj = ExactProjector::labelled(
                    PcgSolver::new(MicPreconditioner::default(), 1e-7, 100_000),
                    "pcg",
                );
                let stats = sim.run(steps, &mut proj);
                let secs: f64 = stats.iter().map(|s| s.projection_time.as_secs_f64()).sum();
                (sim.density().clone(), secs)
        });
        let (reference_densities, reference_times) = reference.into_iter().unzip();
        Self {
            problems,
            reference_densities,
            reference_times,
            steps,
        }
    }

    /// Mean PCG projection time per simulation — the `T′` fallback time
    /// of Eq. 8.
    pub fn reference_time_mean(&self) -> f64 {
        if self.reference_times.is_empty() {
            return 0.0;
        }
        self.reference_times.iter().sum::<f64>() / self.reference_times.len() as f64
    }

    /// Number of evaluation problems.
    pub fn len(&self) -> usize {
        self.problems.len()
    }

    /// True when the context holds no problems.
    pub fn is_empty(&self) -> bool {
        self.problems.is_empty()
    }

    /// The evaluation problems.
    pub fn problems(&self) -> &[InputProblem] {
        &self.problems
    }

    /// Reference (PCG) final density of problem `i`.
    pub fn reference_density(&self, i: usize) -> &Field2 {
        &self.reference_densities[i]
    }

    /// Runs `projector` on every problem; returns per-problem
    /// `(quality loss, projection seconds)`.
    pub fn run_projector(
        &self,
        mut make_projector: impl FnMut() -> Box<dyn PressureProjector>,
    ) -> Vec<(f64, f64)> {
        self.problems
            .iter()
            .zip(&self.reference_densities)
            .map(|(p, reference)| {
                let mut sim = p.simulation();
                let mut proj = make_projector();
                let stats = sim.run(self.steps, proj.as_mut());
                let secs: f64 = stats.iter().map(|s| s.projection_time.as_secs_f64()).sum();
                let q = if sim.is_healthy() {
                    quality_loss(sim.density(), reference)
                } else {
                    // A diverged simulation is maximally wrong.
                    f64::INFINITY
                };
                (q, secs)
            })
            .collect()
    }

    /// Measures one trained network.
    pub fn measure(&self, model: &GeneratedModel, mut network: Network) -> ModelMeasurement {
        assert!(!self.is_empty(), "evaluation context has no problems");
        let grid = self.problems[0].config.nx;
        let flops_per_step = network.flops((2, grid, grid));
        let saved = network.save();
        let results = self.run_projector(|| {
            let proj = NeuralProjector::try_from_saved(&saved, model.name.clone());
            Box::new(proj.expect("reloading own snapshot"))
        });
        let n = results.len() as f64;
        let quality = results.iter().map(|r| r.0).sum::<f64>() / n;
        let time = results.iter().map(|r| r.1).sum::<f64>() / n;
        ModelMeasurement {
            id: model.id,
            name: model.name.clone(),
            time_cost: time,
            quality_loss: quality,
            flops_per_step,
            saved,
            per_problem: results,
        }
    }
}

/// Trains every family member on `dataset` and measures it on `ctx`.
/// Models are processed in parallel, each from a fresh initialisation.
pub fn train_and_measure_family(
    family: &[GeneratedModel],
    dataset: &ProjectionDataset,
    ctx: &EvalContext,
    train_cfg: &TrainConfig,
) -> Vec<ModelMeasurement> {
    sfn_par::map(family, |model| {
            let cfg = TrainConfig {
                seed: train_cfg.seed.wrapping_add(model.id as u64),
                ..*train_cfg
            };
            let mut net = Network::from_spec(&model.spec, cfg.seed).expect("valid family spec");
            sfn_surrogate::damp_output_layer(&mut net, 0.02);
            train_network(&mut net, dataset, &cfg);
        ctx.measure(model, net)
    })
}

/// Like [`train_and_measure_family`], but children are *warm-started*
/// from their trained parents (network morphism, the Auto-Keras way)
/// and fine-tuned with `child_epochs` instead of the full budget.
/// Roots (base / search models) get the full budget from scratch.
///
/// Training proceeds in dependency waves: a model trains only after its
/// parent's weights exist; each wave runs in parallel.
pub fn train_and_measure_family_inherited(
    family: &[GeneratedModel],
    dataset: &ProjectionDataset,
    ctx: &EvalContext,
    train_cfg: &TrainConfig,
    child_epochs: usize,
) -> Vec<ModelMeasurement> {
    use crate::family::Origin;
    use crate::inherit::inherit_weights;
    use std::collections::HashMap;

    let parent_of = |m: &GeneratedModel| -> Option<usize> {
        match m.origin {
            Origin::Base | Origin::Search => None,
            Origin::Shallow { .. } => Some(0),
            Origin::Narrow { parent, .. }
            | Origin::Pooling { parent, .. }
            | Origin::Dropout { parent, .. } => Some(parent),
        }
    };

    let mut measurements: HashMap<usize, ModelMeasurement> = HashMap::new();
    loop {
        // Next wave: untrained models whose parent (if any) is trained.
        let wave: Vec<&GeneratedModel> = family
            .iter()
            .filter(|m| !measurements.contains_key(&m.id))
            .filter(|m| parent_of(m).is_none_or(|p| measurements.contains_key(&p)))
            .collect();
        if wave.is_empty() {
            break;
        }
        let results: Vec<ModelMeasurement> =
            sfn_par::map(&wave, |model| {
                let seed = train_cfg.seed.wrapping_add(model.id as u64);
                let (mut net, epochs) = match parent_of(model) {
                    Some(p) => (
                        inherit_weights(&measurements[&p].saved, &model.spec, seed),
                        child_epochs.max(1),
                    ),
                    None => {
                        let mut net =
                            Network::from_spec(&model.spec, seed).expect("valid family spec");
                        sfn_surrogate::damp_output_layer(&mut net, 0.02);
                        (net, train_cfg.epochs)
                    }
                };
                let cfg = TrainConfig {
                    seed,
                    epochs,
                    ..*train_cfg
                };
                train_network(&mut net, dataset, &cfg);
                ctx.measure(model, net)
            });
        for m in results {
            measurements.insert(m.id, m);
        }
    }
    let mut out: Vec<ModelMeasurement> = family
        .iter()
        .map(|m| measurements.remove(&m.id).expect("trained"))
        .collect();
    out.sort_by_key(|m| m.id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::Origin;
    use sfn_surrogate::{tompson_spec, yang_spec};

    fn tiny_ctx() -> EvalContext {
        EvalContext::new(&ProblemSet::evaluation(16, 2), 6)
    }

    fn tiny_dataset() -> ProjectionDataset {
        ProjectionDataset::generate(&ProblemSet::training(16, 2), 6, 2)
    }

    fn model(id: usize, spec: sfn_nn::NetworkSpec) -> GeneratedModel {
        GeneratedModel {
            id,
            name: format!("M{id}"),
            origin: Origin::Base,
            spec,
        }
    }

    #[test]
    fn exact_projection_scores_zero_quality_loss() {
        let ctx = tiny_ctx();
        let results = ctx.run_projector(|| {
            Box::new(ExactProjector::labelled(
                PcgSolver::new(MicPreconditioner::default(), 1e-7, 100_000),
                "pcg",
            ))
        });
        for (q, _) in results {
            assert!(q < 1e-9, "PCG vs PCG quality loss {q}");
        }
    }

    #[test]
    fn trained_model_measures_finite_quality() {
        let ctx = tiny_ctx();
        let ds = tiny_dataset();
        let m = model(0, yang_spec(4));
        let out = train_and_measure_family(
            &[m],
            &ds,
            &ctx,
            &TrainConfig {
                epochs: 60,
                ..Default::default()
            },
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].quality_loss.is_finite());
        assert!(out[0].quality_loss > 0.0);
        assert!(out[0].time_cost > 0.0);
        assert!(out[0].flops_per_step > 0);
    }

    #[test]
    fn inherited_training_measures_whole_family() {
        use crate::family::{generate_family, FamilyConfig};
        use crate::search::SearchConfig;
        let ctx = tiny_ctx();
        let ds = tiny_dataset();
        let cfg = FamilyConfig {
            shallow_variants: 1,
            narrow_per_model: 1,
            dropout_variants: 1,
            search_models: 0,
            ..FamilyConfig::reduced()
        };
        let family = generate_family(&tompson_spec(8), &ds, &SearchConfig::fast(), &cfg);
        let out = train_and_measure_family_inherited(
            &family,
            &ds,
            &ctx,
            &TrainConfig {
                epochs: 20,
                ..Default::default()
            },
            5,
        );
        assert_eq!(out.len(), family.len());
        for (i, m) in out.iter().enumerate() {
            assert_eq!(m.id, i, "order preserved");
            assert!(m.quality_loss.is_finite(), "{} diverged", m.name);
        }
    }

    #[test]
    fn cheaper_model_reports_fewer_flops() {
        let ctx = tiny_ctx();
        let ds = tiny_dataset();
        let family = vec![model(0, tompson_spec(8)), model(1, yang_spec(4))];
        let out = train_and_measure_family(
            &family,
            &ds,
            &ctx,
            &TrainConfig {
                epochs: 4,
                ..Default::default()
            },
        );
        assert!(out[1].flops_per_step < out[0].flops_per_step);
    }
}
