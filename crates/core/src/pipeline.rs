//! The offline phase (Figure 2, left side).

use crate::artifacts::OfflineArtifacts;
use crate::config::OfflineConfig;
use sfn_modelgen::{generate_family, select_candidates, EvalContext};
use sfn_quality::mlp::MlpTrainConfig;
use sfn_quality::{
    generate_samples, select_runtime_models, ExecutionRecord, MlpVariant, ModelRecords,
    SampleConfig, SelectionInput, SuccessPredictor,
};
use sfn_runtime::CandidateModel;
use sfn_sim::quality_loss;
use sfn_surrogate::{tompson_default, NeuralProjector, ProjectionDataset, TrainConfig};
use sfn_workload::ProblemSet;

/// Runs the complete offline phase.
///
/// Stages: dataset generation → §4 family generation → per-model
/// training + measurement → Pareto candidate selection → §5.1
/// execution records → MLP training → Eq. 8 selection → §6.1 KNN
/// database construction.
pub fn build_offline(cfg: &OfflineConfig) -> OfflineArtifacts {
    // 1. Shared training dataset from reference (PCG) runs.
    let train_set = ProblemSet::training(cfg.train_grid, cfg.train_problems);
    let dataset = ProjectionDataset::generate(&train_set, cfg.train_steps, cfg.capture_every);

    // 2. Model family (base = the Tompson-style network).
    let base_spec = tompson_default();
    let family = generate_family(&base_spec, &dataset, &cfg.search, &cfg.family);

    // 3. Train + measure every family member.
    let eval_set = ProblemSet::evaluation(cfg.eval_grid, cfg.eval_problems);
    let ctx = EvalContext::new(&eval_set, cfg.eval_steps);
    let train_cfg = TrainConfig {
        epochs: cfg.train_epochs,
        batch_size: 8,
        learning_rate: cfg.learning_rate,
        seed: cfg.seed,
    };
    let measurements = if cfg.child_epochs > 0 {
        sfn_modelgen::evaluate::train_and_measure_family_inherited(
            &family,
            &dataset,
            &ctx,
            &train_cfg,
            cfg.child_epochs,
        )
    } else {
        sfn_modelgen::evaluate::train_and_measure_family(&family, &dataset, &ctx, &train_cfg)
    };

    // 4. Pareto-optimal candidates (Figure 3's red points).
    let candidate_indices = select_candidates(&measurements);

    // 5. Execution records for the candidates (§5.1).
    let records: Vec<ModelRecords> = candidate_indices
        .iter()
        .map(|&idx| {
            let m = &measurements[idx];
            ModelRecords {
                model_id: m.id,
                name: m.name.clone(),
                spec: m.saved.spec.clone(),
                records: m
                    .per_problem
                    .iter()
                    .enumerate()
                    .map(|(p, &(q, t))| ExecutionRecord {
                        problem: p,
                        quality_loss: q,
                        time: t,
                    })
                    .collect(),
            }
        })
        .collect();

    // 6. Train the success-rate MLP (MLP3 topology).
    let samples = generate_samples(
        &records,
        &SampleConfig {
            per_model: cfg.mlp_samples_per_model,
            seed: cfg.seed ^ 0x11,
        },
    );
    let (mut predictor, mlp_loss_curve) = SuccessPredictor::train(
        MlpVariant::Mlp3,
        &samples,
        &MlpTrainConfig {
            steps: cfg.mlp_steps,
            seed: cfg.seed ^ 0x22,
            ..Default::default()
        },
    );

    // 7. Derive the requirement U(q, t) from the base Tompson model
    //    (§7.1: "we use the average quality loss … when using the
    //    Tompson's model, as the user requirement") and apply Eq. 8.
    let base_index = 0usize; // family[0] is always the base
    let base = &measurements[base_index];
    let requirement = (base.quality_loss, base.time_cost.max(1e-9) * 1.5);
    let fallback_time = ctx.reference_time_mean();
    let inputs: Vec<SelectionInput> = records
        .iter()
        .map(|r| SelectionInput { records: r.clone() })
        .collect();
    let mut selected_info = select_runtime_models(
        &inputs,
        &mut predictor,
        requirement.0,
        requirement.1,
        fallback_time,
    );
    if selected_info.is_empty() {
        // Degenerate small-scale runs can reject everything; fall back
        // to ranking every candidate by predicted success rate so the
        // runtime always has models to work with.
        let mut all: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(index, input)| {
                let r = &input.records;
                let probability = predictor.predict(&r.spec, requirement.0, requirement.1);
                sfn_quality::selection::SelectedModel {
                    index,
                    model_id: r.model_id,
                    name: r.name.clone(),
                    probability,
                    model_time: r.mean_time(),
                    expected_time: probability * r.mean_time()
                        + (1.0 - probability) * fallback_time,
                }
            })
            .collect();
        all.sort_by(|a, b| b.probability.total_cmp(&a.probability));
        all.truncate(5);
        selected_info = all;
    }
    // Paper: more than 5 runtime models adds switching overhead.
    selected_info.truncate(5);

    let selected: Vec<CandidateModel> = selected_info
        .iter()
        .map(|s| {
            let m = &measurements[candidate_indices[s.index]];
            CandidateModel {
                name: m.name.clone(),
                saved: m.saved.clone(),
                probability: s.probability,
                exec_time: m.time_cost,
                quality_loss: m.quality_loss,
            }
        })
        .collect();

    // 8. KNN database from small problems (§6.1): run every selected
    //    model on the small problem pool, collecting
    //    (CumDivNorm_final, final Q_loss) pairs.
    let knn_pairs = build_knn_pairs(&selected, cfg);

    OfflineArtifacts {
        family,
        measurements,
        candidate_indices,
        mlp: predictor.save(),
        mlp_variant: MlpVariant::Mlp3,
        mlp_loss_curve,
        selected,
        knn_pairs,
        requirement,
        fallback_time,
        base_index,
    }
}

/// Runs each selected model on the small-problem pool and collects the
/// `(CumDivNorm_final, Q_loss)` training pairs for the KNN database.
fn build_knn_pairs(selected: &[CandidateModel], cfg: &OfflineConfig) -> Vec<(f64, f64)> {
    let set = ProblemSet::evaluation(cfg.knn_grid, cfg.knn_problems);
    let problems: Vec<_> = set.iter().collect();
    // Reference densities once per problem.
    let references: Vec<_> = sfn_par::map(&problems, |p| p.reference(cfg.eval_steps).0);
    sfn_par::map(selected, |model| {
            problems
                .iter()
                .zip(&references)
                .filter_map(|(p, reference)| {
                    let mut proj =
                        NeuralProjector::try_from_saved(&model.saved, model.name.clone()).ok()?;
                    let mut sim = p.simulation();
                    let stats = sim.run(cfg.eval_steps, &mut proj);
                    if !sim.is_healthy() {
                        return None;
                    }
                    // Per-cell normalisation so the database transfers
                    // across grid sizes (matches the scheduler's view).
                    let inv_cells = 1.0 / (cfg.knn_grid * cfg.knn_grid) as f64;
                    let cdn: f64 = stats.iter().map(|s| s.div_norm * inv_cells).sum();
                    let q = quality_loss(sim.density(), reference);
                    (cdn.is_finite() && q.is_finite()).then_some((cdn, q))
                })
                .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_pipeline_produces_complete_artifacts() {
        let cfg = OfflineConfig::quick();
        let art = build_offline(&cfg);
        assert_eq!(art.family.len(), art.measurements.len());
        assert!(
            !art.candidate_indices.is_empty(),
            "Pareto front cannot be empty"
        );
        assert!(
            !art.selected.is_empty() && art.selected.len() <= 5,
            "runtime model count: {}",
            art.selected.len()
        );
        assert!(!art.knn_pairs.is_empty(), "KNN database is empty");
        assert!(art.requirement.0 > 0.0 && art.requirement.1 > 0.0);
        assert!(art.fallback_time > 0.0);
        // Pareto candidates must be mutually non-dominated.
        let cands = art.candidates();
        for a in &cands {
            for b in &cands {
                assert!(
                    !(a.time_cost < b.time_cost && a.quality_loss < b.quality_loss
                        && (a.id != b.id)),
                    "{} dominates {}",
                    a.name,
                    b.name
                );
            }
        }
    }

    #[test]
    fn artifacts_round_trip_through_json() {
        let cfg = OfflineConfig::quick();
        let art = build_offline(&cfg);
        let dir = std::env::temp_dir().join("sfn-artifact-test");
        let path = dir.join("quick.json");
        art.save(&path).expect("save artifacts");
        let back = OfflineArtifacts::load(&path).expect("load artifacts");
        assert_eq!(art.family.len(), back.family.len());
        assert_eq!(art.selected.len(), back.selected.len());
        assert_eq!(art.knn_pairs, back.knn_pairs);
        assert_eq!(art.requirement, back.requirement);
        std::fs::remove_dir_all(&dir).ok();
    }
}
