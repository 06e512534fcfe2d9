//! The success-rate MLP (§5.2, Figures 4 and 5).
//!
//! Five alternative topologies are provided exactly as the paper lists
//! them; MLP3 — "6 layers with 48, 32, 32, 16, 8 and 1 neurons" — is
//! the default, chosen in the paper for its balance of convergence
//! speed and loss. Hidden neurons use ReLU, the output a sigmoid
//! (the prediction is a probability).

use crate::samples::MlpSample;
use sfn_obs::json::{FromJson, JsonError, ToJson, Value};
use sfn_rng::rngs::StdRng;
use sfn_rng::seq::SliceRandom;
use sfn_rng::SeedableRng;
use sfn_nn::loss::mse;
use sfn_nn::network::SavedModel;
use sfn_nn::optim::{Adam, Optimizer};
use sfn_nn::{LayerSpec, Network, NetworkSpec, Tensor};

/// The five §5.2 topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MlpVariant {
    /// 48-32-16-1.
    Mlp1,
    /// 48-32-16-8-1.
    Mlp2,
    /// 48-32-32-16-8-1 (the paper's choice).
    Mlp3,
    /// 48-64-32-32-16-8-1.
    Mlp4,
    /// 48-64-64-32-32-16-8-1.
    Mlp5,
}

impl ToJson for MlpVariant {
    fn to_json_value(&self) -> Value {
        Value::Str(
            match self {
                MlpVariant::Mlp1 => "Mlp1",
                MlpVariant::Mlp2 => "Mlp2",
                MlpVariant::Mlp3 => "Mlp3",
                MlpVariant::Mlp4 => "Mlp4",
                MlpVariant::Mlp5 => "Mlp5",
            }
            .to_string(),
        )
    }
}

impl FromJson for MlpVariant {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        match v.as_str() {
            Some("Mlp1") => Ok(MlpVariant::Mlp1),
            Some("Mlp2") => Ok(MlpVariant::Mlp2),
            Some("Mlp3") => Ok(MlpVariant::Mlp3),
            Some("Mlp4") => Ok(MlpVariant::Mlp4),
            Some("Mlp5") => Ok(MlpVariant::Mlp5),
            _ => Err(JsonError {
                at: 0,
                message: "expected MlpVariant string".to_string(),
            }),
        }
    }
}

impl MlpVariant {
    /// All five variants, in paper order.
    pub const ALL: [MlpVariant; 5] = [
        MlpVariant::Mlp1,
        MlpVariant::Mlp2,
        MlpVariant::Mlp3,
        MlpVariant::Mlp4,
        MlpVariant::Mlp5,
    ];

    /// Layer widths including input (48) and output (1).
    pub fn widths(self) -> &'static [usize] {
        match self {
            MlpVariant::Mlp1 => &[48, 32, 16, 1],
            MlpVariant::Mlp2 => &[48, 32, 16, 8, 1],
            MlpVariant::Mlp3 => &[48, 32, 32, 16, 8, 1],
            MlpVariant::Mlp4 => &[48, 64, 32, 32, 16, 8, 1],
            MlpVariant::Mlp5 => &[48, 64, 64, 32, 32, 16, 8, 1],
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MlpVariant::Mlp1 => "MLP1",
            MlpVariant::Mlp2 => "MLP2",
            MlpVariant::Mlp3 => "MLP3",
            MlpVariant::Mlp4 => "MLP4",
            MlpVariant::Mlp5 => "MLP5",
        }
    }
}

/// Builds the dense spec for a variant: ReLU between hidden layers,
/// sigmoid on the output.
pub fn mlp_topology(variant: MlpVariant) -> NetworkSpec {
    let widths = variant.widths();
    let mut layers = Vec::new();
    for w in widths.windows(2) {
        layers.push(LayerSpec::Dense {
            inputs: w[0],
            outputs: w[1],
        });
        if w[1] != 1 {
            layers.push(LayerSpec::ReLU);
        }
    }
    layers.push(LayerSpec::Sigmoid);
    NetworkSpec::new(layers)
}

/// Training configuration for the MLP.
#[derive(Debug, Clone, Copy)]
pub struct MlpTrainConfig {
    /// Mini-batch Adam steps (the paper's Figure 5 plots up to 10k).
    pub steps: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for MlpTrainConfig {
    fn default() -> Self {
        Self {
            steps: 2000,
            batch_size: 32,
            learning_rate: 2e-3,
            seed: 0x417,
        }
    }
}

/// A trained success-rate predictor.
pub struct SuccessPredictor {
    network: Network,
    variant: MlpVariant,
}

impl SuccessPredictor {
    /// Trains a predictor of the given variant on the samples.
    /// Returns the predictor and the per-step training-loss curve
    /// (Figure 5's series).
    pub fn train(
        variant: MlpVariant,
        samples: &[MlpSample],
        cfg: &MlpTrainConfig,
    ) -> (Self, Vec<f64>) {
        assert!(!samples.is_empty(), "no training samples");
        let spec = mlp_topology(variant);
        let mut net = Network::from_spec(&spec, cfg.seed).expect("valid MLP spec");
        let mut optimizer = Adam::new(cfg.learning_rate);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD15EA5E);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut curve = Vec::with_capacity(cfg.steps);
        let mut cursor = samples.len(); // force an initial shuffle
        for _ in 0..cfg.steps {
            // Draw the next mini-batch, reshuffling at epoch borders.
            let mut batch = Vec::with_capacity(cfg.batch_size);
            for _ in 0..cfg.batch_size {
                if cursor >= order.len() {
                    order.shuffle(&mut rng);
                    cursor = 0;
                }
                batch.push(order[cursor]);
                cursor += 1;
            }
            let x = Tensor::stack(
                &batch
                    .iter()
                    .map(|&i| {
                        Tensor::from_vec(
                            1,
                            48,
                            1,
                            1,
                            samples[i].features.iter().map(|&v| v as f32).collect(),
                        )
                    })
                    .collect::<Vec<_>>(),
            );
            let y = Tensor::from_vec(
                batch.len(),
                1,
                1,
                1,
                batch.iter().map(|&i| samples[i].label as f32).collect(),
            );
            let pred = net.forward(&x, true);
            let (loss, grad) = mse(&pred, &y);
            net.backward(&grad);
            optimizer.step(&mut net);
            curve.push(loss);
        }
        (
            Self {
                network: net,
                variant,
            },
            curve,
        )
    }

    /// Predicts `r̂_{k,q,t}` from a prepared feature vector.
    pub fn predict_features(&mut self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), 48, "feature vector length");
        let x = Tensor::from_vec(1, 48, 1, 1, features.iter().map(|&v| v as f32).collect());
        let y = self.network.predict(&x);
        y.data()[0].clamp(0.0, 1.0) as f64
    }

    /// Predicts the success rate of `spec` under `U(q, t)`.
    pub fn predict(&mut self, spec: &NetworkSpec, q: f64, t: f64) -> f64 {
        self.predict_features(&crate::features::feature_vector(spec, q, t))
    }

    /// Mean squared error over a held-out sample set.
    pub fn evaluate(&mut self, samples: &[MlpSample]) -> f64 {
        assert!(!samples.is_empty(), "no samples");
        let mut total = 0.0;
        for s in samples {
            let p = self.predict_features(&s.features);
            total += (p - s.label) * (p - s.label);
        }
        total / samples.len() as f64
    }

    /// Which topology this predictor uses.
    pub fn variant(&self) -> MlpVariant {
        self.variant
    }

    /// Snapshot for artifact caching.
    pub fn save(&mut self) -> SavedModel {
        self.network.save()
    }

    /// Restores from a snapshot.
    pub fn load(variant: MlpVariant, saved: &SavedModel) -> Result<Self, sfn_nn::spec::SpecError> {
        Ok(Self {
            network: Network::load(saved, 0)?,
            variant,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{ExecutionRecord, ModelRecords};
    use crate::samples::{generate_samples, SampleConfig};

    fn training_samples() -> Vec<MlpSample> {
        // Two synthetic models with distinct quality/time profiles.
        let mk = |id: usize, ch: usize, q0: f64, t0: f64| ModelRecords {
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
        };
        let models = vec![mk(0, 16, 0.01, 2.0), mk(1, 4, 0.04, 0.7)];
        generate_samples(
            &models,
            &SampleConfig {
                per_model: 400,
                seed: 3,
            },
        )
    }

    #[test]
    fn topologies_match_paper_widths() {
        for v in MlpVariant::ALL {
            let spec = mlp_topology(v);
            let denses: Vec<(usize, usize)> = spec
                .layers
                .iter()
                .filter_map(|l| match l {
                    LayerSpec::Dense { inputs, outputs } => Some((*inputs, *outputs)),
                    _ => None,
                })
                .collect();
            let widths = v.widths();
            assert_eq!(denses.len(), widths.len() - 1, "{v:?}");
            assert_eq!(denses[0].0, 48);
            assert_eq!(denses.last().unwrap().1, 1);
            // Output shape is a single sigmoid scalar.
            assert_eq!(spec.output_shape((48, 1, 1)).unwrap(), (1, 1, 1));
        }
    }

    #[test]
    fn training_reduces_loss() {
        let samples = training_samples();
        let cfg = MlpTrainConfig {
            steps: 600,
            ..Default::default()
        };
        let (_, curve) = SuccessPredictor::train(MlpVariant::Mlp3, &samples, &cfg);
        let early: f64 = curve[..50].iter().sum::<f64>() / 50.0;
        let late: f64 = curve[curve.len() - 50..].iter().sum::<f64>() / 50.0;
        assert!(late < 0.6 * early, "MLP loss {early} -> {late}");
    }

    #[test]
    fn predictions_track_requirement_monotonicity() {
        let samples = training_samples();
        let cfg = MlpTrainConfig {
            steps: 800,
            ..Default::default()
        };
        let (mut p, _) = SuccessPredictor::train(MlpVariant::Mlp3, &samples, &cfg);
        let spec = NetworkSpec::new(vec![
            LayerSpec::Conv2d { in_ch: 2, out_ch: 16, kernel: 3, residual: false },
            LayerSpec::ReLU,
            LayerSpec::Conv2d { in_ch: 16, out_ch: 1, kernel: 1, residual: false },
        ]);
        // A generous requirement must look at least as satisfiable as a
        // draconian one.
        let strict = p.predict(&spec, 0.001, 0.1);
        let loose = p.predict(&spec, 0.06, 4.0);
        assert!(
            loose > strict,
            "loose requirement {loose} vs strict {strict}"
        );
        assert!(loose > 0.5, "trivial requirement should score high: {loose}");
    }

    #[test]
    fn save_load_round_trip() {
        let samples = training_samples();
        let cfg = MlpTrainConfig {
            steps: 100,
            ..Default::default()
        };
        let (mut p, _) = SuccessPredictor::train(MlpVariant::Mlp2, &samples, &cfg);
        let snap = p.save();
        let mut q = SuccessPredictor::load(MlpVariant::Mlp2, &snap).unwrap();
        let f = &samples[0].features;
        assert_eq!(p.predict_features(f), q.predict_features(f));
    }

    #[test]
    fn evaluate_reports_mse() {
        let samples = training_samples();
        let cfg = MlpTrainConfig {
            steps: 400,
            ..Default::default()
        };
        let (mut p, _) = SuccessPredictor::train(MlpVariant::Mlp1, &samples, &cfg);
        let err = p.evaluate(&samples);
        assert!(err < 0.15, "held-in MSE too high: {err}");
    }
}
