//! Eq. 8 model selection.
//!
//! "Considering the probability that the user requirement on the
//! simulation quality is violated and the user has to re-run the
//! simulation without using any neural network, the simulation time is
//! `T_total = r̂_{k,q,t}·T_{M_k} + (1 − r̂_{k,q,t})·T′`. … Only those
//! neural networks that have `T_total` less than `t` are selected."

use crate::mlp::SuccessPredictor;
use crate::records::ModelRecords;

/// Per-model input to the selection rule.
#[derive(Debug, Clone)]
pub struct SelectionInput {
    /// Records (provides `T_M` and the spec to featurise).
    pub records: ModelRecords,
}

/// One selected model with its predicted success rate.
#[derive(Debug, Clone)]
pub struct SelectedModel {
    /// Index into the input slice.
    pub index: usize,
    /// Model id from the records.
    pub model_id: usize,
    /// Display name.
    pub name: String,
    /// MLP-predicted probability of meeting `U(q, t)`.
    pub probability: f64,
    /// Mean model execution time `T_M`.
    pub model_time: f64,
    /// Eq. 8 expected total time.
    pub expected_time: f64,
}

/// Applies Eq. 8: keeps models whose expected total time beats the
/// requirement `t`, ordered by descending predicted success rate.
///
/// `fallback_time` is `T′`, the no-neural-network (PCG) simulation
/// time. When no model qualifies, the result is empty — the caller
/// falls back to the original simulation.
pub fn select_runtime_models(
    inputs: &[SelectionInput],
    predictor: &mut SuccessPredictor,
    q: f64,
    t: f64,
    fallback_time: f64,
) -> Vec<SelectedModel> {
    assert!(t > 0.0, "time requirement must be positive");
    assert!(fallback_time >= 0.0, "fallback time must be non-negative");
    let mut selected: Vec<SelectedModel> = inputs
        .iter()
        .enumerate()
        .filter_map(|(index, input)| {
            let r = &input.records;
            let probability = predictor.predict(&r.spec, q, t);
            let model_time = r.mean_time();
            let expected_time = probability * model_time + (1.0 - probability) * fallback_time;
            (expected_time < t).then(|| SelectedModel {
                index,
                model_id: r.model_id,
                name: r.name.clone(),
                probability,
                model_time,
                expected_time,
            })
        })
        .collect();
    selected.sort_by(|a, b| b.probability.total_cmp(&a.probability));
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::{MlpTrainConfig, MlpVariant};
    use crate::records::ExecutionRecord;
    use crate::samples::{generate_samples, SampleConfig};
    use sfn_nn::{LayerSpec, NetworkSpec};

    fn records(id: usize, ch: usize, q0: f64, t0: f64) -> ModelRecords {
        ModelRecords {
            model_id: id,
            name: format!("M{id}"),
            spec: NetworkSpec::new(vec![
                LayerSpec::Conv2d { in_ch: 2, out_ch: ch, kernel: 3, residual: false },
                LayerSpec::ReLU,
                LayerSpec::Conv2d { in_ch: ch, out_ch: 1, kernel: 1, residual: false },
            ]),
            records: (0..64)
                .map(|p| ExecutionRecord {
                    problem: p,
                    quality_loss: q0 * (0.8 + 0.4 * ((p * 13 % 17) as f64 / 17.0)),
                    time: t0 * (0.9 + 0.2 * ((p * 7 % 11) as f64 / 11.0)),
                })
                .collect(),
        }
    }

    fn predictor(models: &[ModelRecords]) -> SuccessPredictor {
        let samples = generate_samples(
            models,
            &SampleConfig {
                per_model: 300,
                seed: 9,
            },
        );
        let (p, _) = SuccessPredictor::train(
            MlpVariant::Mlp3,
            &samples,
            &MlpTrainConfig {
                steps: 600,
                ..Default::default()
            },
        );
        p
    }

    #[test]
    fn selects_satisfiable_models_and_ranks_by_probability() {
        // Model 0: accurate & fast enough; model 1: too slow to ever help.
        let models = vec![records(0, 16, 0.01, 1.0), records(1, 4, 0.01, 50.0)];
        let mut p = predictor(&models);
        let inputs: Vec<SelectionInput> = models
            .iter()
            .map(|r| SelectionInput { records: r.clone() })
            .collect();
        // Fallback T' = 6 s: model 0 qualifies whenever r̂ > 0.6 (its
        // requirement is generously satisfiable), model 1 can never
        // qualify because even r̂ = 1 leaves T_total = 50 s > 3 s.
        let out = select_runtime_models(&inputs, &mut p, 0.05, 3.0, 6.0);
        assert!(out.iter().any(|s| s.model_id == 0), "model 0 should qualify");
        assert!(
            out.iter().all(|s| s.model_id != 1),
            "model 1 (T_M = 50s > t) must be rejected"
        );
        for w in out.windows(2) {
            assert!(w[0].probability >= w[1].probability);
        }
    }

    #[test]
    fn impossible_requirement_selects_nothing() {
        let models = vec![records(0, 16, 0.01, 1.0)];
        let mut p = predictor(&models);
        let inputs: Vec<SelectionInput> = models
            .iter()
            .map(|r| SelectionInput { records: r.clone() })
            .collect();
        // t smaller than any achievable expected time (fallback 100 s).
        let out = select_runtime_models(&inputs, &mut p, 0.0001, 0.5, 100.0);
        assert!(
            out.is_empty(),
            "nothing should beat a 0.5 s budget with 100 s fallback: {out:?}"
        );
    }

    #[test]
    fn expected_time_formula() {
        let models = vec![records(0, 16, 0.01, 1.0)];
        let mut p = predictor(&models);
        let inputs: Vec<SelectionInput> = models
            .iter()
            .map(|r| SelectionInput { records: r.clone() })
            .collect();
        let out = select_runtime_models(&inputs, &mut p, 0.05, 10.0, 20.0);
        assert_eq!(out.len(), 1);
        let s = &out[0];
        let manual = s.probability * s.model_time + (1.0 - s.probability) * 20.0;
        assert!((s.expected_time - manual).abs() < 1e-12);
    }
}
