//! Training harness for projection surrogates.
//!
//! Optimises the unsupervised DivNorm objective (Eq. 5) with Adam. No
//! ground-truth pressure enters the loss.

use crate::dataset::ProjectionDataset;
use crate::divnorm_loss::divnorm_loss_and_grad;
use crate::dataset::output_to_pressure;
use sfn_rng::rngs::StdRng;
use sfn_rng::seq::SliceRandom;
use sfn_rng::SeedableRng;
use sfn_nn::optim::{Adam, Optimizer};
use sfn_nn::{Network, NetworkSpec, Tensor};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Passes over the dataset.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Seed for initialisation and shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 40,
            batch_size: 8,
            learning_rate: 1e-2,
            seed: 0xF1D0,
        }
    }
}

/// Per-epoch telemetry.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean DivNorm loss per epoch (unsupervised objective only).
    pub loss_curve: Vec<f64>,
    /// Final epoch's mean DivNorm loss.
    pub final_loss: f64,
}

/// Trains an existing network in place. Returns the loss curve.
pub fn train_network(net: &mut Network, ds: &ProjectionDataset, cfg: &TrainConfig) -> TrainReport {
    assert!(!ds.is_empty(), "cannot train on an empty dataset");
    assert!(cfg.batch_size >= 1, "batch size must be >= 1");
    let mut optimizer = Adam::new(cfg.learning_rate);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xAB5E_55E5);
    let mut order: Vec<usize> = (0..ds.len()).collect();
    let mut loss_curve = Vec::with_capacity(cfg.epochs);
    for _epoch in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut epoch_batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let inputs: Vec<Tensor> = chunk.iter().map(|&i| ds.samples[i].input.clone()).collect();
            let batch = Tensor::stack(&inputs);
            let out = net.forward(&batch, true);
            let (_, _, h, w) = out.shape();
            let mut grad = Tensor::zeros(chunk.len(), 1, h, w);
            let mut batch_loss = 0.0f64;
            for (bi, &si) in chunk.iter().enumerate() {
                let sample = &ds.samples[si];
                let flags = &ds.geometries[sample.geometry];
                let weights = &ds.weights[sample.geometry];
                let plane = out.sample(bi);
                let pressure = output_to_pressure(&plane, sample.scale, flags);
                let (loss, grad_p) = divnorm_loss_and_grad(
                    &pressure,
                    &sample.divergence,
                    weights,
                    flags,
                    ds.dx,
                    ds.dt,
                );
                batch_loss += loss;
                // Chain rule: dL/dout = scale · dL/dp̂ (fluid cells only),
                // averaged over the batch. Accumulating onto +0.0 turns
                // a −0.0 term into +0.0, which the trained bits depend on.
                let inv_b = 1.0 / chunk.len() as f64;
                let out_scale = sample.scale * crate::dataset::PRESSURE_GAIN;
                for j in 0..h {
                    for i in 0..w {
                        let mut g = 0.0f64;
                        if flags.is_fluid(i, j) {
                            g += out_scale * grad_p.at(i, j);
                        }
                        grad.set(bi, 0, j, i, (g * inv_b) as f32);
                    }
                }
            }
            net.backward(&grad);
            optimizer.step(net);
            epoch_loss += batch_loss / chunk.len() as f64;
            epoch_batches += 1;
        }
        loss_curve.push(epoch_loss / epoch_batches.max(1) as f64);
    }
    let final_loss = *loss_curve.last().expect("at least one epoch");
    TrainReport {
        loss_curve,
        final_loss,
    }
}

/// Scales the last parameterised layer's weights by `factor`.
///
/// A randomly initialised surrogate emits O(1)·[`crate::dataset::PRESSURE_GAIN`]
/// pressures, which score far *worse* than predicting nothing — Adam
/// then collapses the output layer to zero, and with it every upstream
/// gradient (a dead-network saddle). Starting the head near zero keeps
/// the features alive while the output grows in the useful direction.
pub fn damp_output_layer(net: &mut Network, factor: f32) {
    let views = net.params();
    let n = views.len();
    if n < 2 {
        return;
    }
    // The last two parameter tensors are the final layer's weights and
    // bias (every parameterised layer exposes exactly that pair).
    for (k, view) in views.into_iter().enumerate() {
        if k + 2 >= n {
            for v in view.values.iter_mut() {
                *v *= factor;
            }
        }
    }
}

/// Instantiates `spec` and trains it.
pub fn train_projection_model(
    spec: &NetworkSpec,
    ds: &ProjectionDataset,
    cfg: &TrainConfig,
) -> (Network, TrainReport) {
    let mut net = Network::from_spec(spec, cfg.seed).expect("invalid surrogate spec");
    damp_output_layer(&mut net, 0.02);
    let report = train_network(&mut net, ds, cfg);
    (net, report)
}

/// Mean DivNorm loss of a network over a dataset (no training).
pub fn evaluate_divnorm(net: &mut Network, ds: &ProjectionDataset) -> f64 {
    assert!(!ds.is_empty(), "cannot evaluate on an empty dataset");
    let mut total = 0.0f64;
    for sample in &ds.samples {
        let out = net.predict(&sample.input);
        let flags = &ds.geometries[sample.geometry];
        let weights = &ds.weights[sample.geometry];
        let pressure = output_to_pressure(&out, sample.scale, flags);
        let (loss, _) =
            divnorm_loss_and_grad(&pressure, &sample.divergence, weights, flags, ds.dx, ds.dt);
        total += loss;
    }
    total / ds.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{tompson_spec, yang_spec};
    use sfn_workload::ProblemSet;

    fn tiny_dataset() -> ProjectionDataset {
        let set = ProblemSet::training(16, 2);
        ProjectionDataset::generate(&set, 8, 2)
    }

    #[test]
    fn training_reduces_divnorm_loss() {
        let ds = tiny_dataset();
        let spec = tompson_spec(8);
        let cfg = TrainConfig {
            epochs: 120,
            batch_size: 8,
            learning_rate: 1e-2,
            seed: 5,
        };
        let (_, report) = train_projection_model(&spec, &ds, &cfg);
        let first = report.loss_curve[0];
        let last = report.final_loss;
        assert!(
            last < 0.2 * first,
            "loss should drop by >5x: {first} -> {last}"
        );
    }

    #[test]
    fn trained_model_beats_zero_pressure_baseline() {
        let ds = tiny_dataset();
        let spec = yang_spec(4);
        let cfg = TrainConfig {
            epochs: 150,
            batch_size: 8,
            learning_rate: 1e-2,
            seed: 2,
        };
        let (mut net, _) = train_projection_model(&spec, &ds, &cfg);
        let model_loss = evaluate_divnorm(&mut net, &ds);
        // Zero-pressure baseline: raw weighted divergence norm.
        let mut zero_net =
            Network::from_spec(&yang_spec(4), 11).expect("spec");
        for view in zero_net.params() {
            view.values.fill(0.0);
        }
        let zero_loss = evaluate_divnorm(&mut zero_net, &ds);
        assert!(
            model_loss < 0.7 * zero_loss,
            "trained {model_loss} vs zero baseline {zero_loss}"
        );
    }

    #[test]
    fn deterministic_training() {
        let ds = tiny_dataset();
        let spec = yang_spec(4);
        let cfg = TrainConfig {
            epochs: 2,
            ..Default::default()
        };
        let (mut a, ra) = train_projection_model(&spec, &ds, &cfg);
        let (mut b, rb) = train_projection_model(&spec, &ds, &cfg);
        assert_eq!(ra.loss_curve, rb.loss_curve);
        let x = &ds.samples[0].input;
        assert_eq!(a.predict(x), b.predict(x));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let ds = ProjectionDataset::generate(&ProblemSet::training(16, 0), 1, 1);
        let mut net = Network::from_spec(&yang_spec(4), 0).unwrap();
        let _ = train_network(&mut net, &ds, &TrainConfig::default());
    }
}
