//! `train_24`: one epoch of `train_network` per operation, on the
//! default Tompson network over a seeded 24² projection dataset. It uses
//! the network framework the other way round — backward pass and
//! optimiser instead of inference — so an inference-only optimisation
//! that costs training shows here.

use crate::driver::{Check, PassOut, Values, Workload};
use crate::trace::{spanned, Tracer};
use crate::util::{derive_seed, mean, ms_since};
use sfn_nn::Network;
use sfn_surrogate::{
    damp_output_layer, tompson_default, train_network, ProjectionDataset, TrainConfig,
};
use sfn_workload::ProblemSet;
use std::cell::RefCell;
use std::time::Instant;

const GRID: usize = 24;
const PROBLEMS: usize = 4;
const STEPS: usize = 16;
const CAPTURE_EVERY: usize = 2;
/// Epochs per second of `--seconds` on the calibration machine (README).
const EPOCHS_PER_S: f64 = 17.0;

pub struct Train24 {
    dataset: ProjectionDataset,
    dataset_gen_ms: f64,
    seed: u64,
    epochs: usize,
}

impl Train24 {
    fn epoch(&self, net: &mut Network, epoch: usize) -> f64 {
        let config = TrainConfig {
            epochs: 1,
            seed: self.seed.wrapping_add(epoch as u64),
            ..TrainConfig::default()
        };
        train_network(net, &self.dataset, &config).final_loss
    }
}

impl Workload for Train24 {
    fn setup(seed: u64, seconds: f64) -> Result<Self, String> {
        let set = ProblemSet {
            base_seed: derive_seed(seed, "dataset"),
            ..ProblemSet::training(GRID, PROBLEMS)
        };
        let t = Instant::now();
        let dataset = ProjectionDataset::generate(&set, STEPS, CAPTURE_EVERY);
        let dataset_gen_ms = ms_since(t);
        let w = Self {
            dataset,
            dataset_gen_ms,
            seed: derive_seed(seed, "training"),
            epochs: ((seconds * EPOCHS_PER_S).round() as usize).max(2),
        };
        // The first operation is warm-up and not timed; its network is
        // dropped, and every pass starts again from the same weights.
        let mut net = Network::from_spec(&tompson_default(), w.seed).map_err(|e| e.to_string())?;
        w.epoch(&mut net, 0);
        Ok(w)
    }

    fn pass(&self, tracer: Option<&RefCell<Tracer>>) -> PassOut {
        let mut out = PassOut::default();
        let mut net = Network::from_spec(&tompson_default(), self.seed)
            .expect("the default Tompson spec builds");
        // As `train_projection_model` starts a surrogate.
        damp_output_layer(&mut net, 0.02);
        let mut losses = Vec::with_capacity(self.epochs);
        for epoch in 0..self.epochs {
            let t = Instant::now();
            let loss = spanned(tracer, "surrogate.train_network", epoch as u64, || {
                self.epoch(&mut net, epoch)
            });
            out.op_ms.push(ms_since(t));
            out.failed += u64::from(!loss.is_finite());
            losses.push(loss);
        }
        // Training has to have trained: the last loss is below the first.
        let (first, last) = (losses[0], losses[losses.len() - 1]);
        if last.is_nan() || last >= first {
            out.failed += 1;
        }
        out.digest = losses.iter().map(|l| l.to_bits()).collect();
        out.outputs = vec![losses.clone()];
        if tracer.is_some() {
            let epoch_ms = mean(&out.op_ms);
            out.layers = vec![
                ("nn.train_epoch_ms", epoch_ms),
                (
                    "nn.train_samples_per_s",
                    self.dataset.len() as f64 / (epoch_ms / 1e3),
                ),
                ("surrogate.dataset_gen_ms", self.dataset_gen_ms),
                ("surrogate.final_loss", losses[losses.len() - 1]),
            ];
        }
        out
    }

    fn check(&self, out: &PassOut) -> Check {
        let losses = &out.outputs[0];
        Check {
            notes: vec![format!(
                "loss: {:.6e} after the first timed epoch, {:.6e} after the last",
                losses[0],
                losses[losses.len() - 1]
            )],
            ..Check::default()
        }
    }

    fn setup_layers(&self) -> Values {
        vec![(
            "workload.problem_gen_ms",
            self.dataset_gen_ms / PROBLEMS as f64,
        )]
    }

    fn describe(&self) -> Vec<String> {
        vec![format!(
            "{} epochs over {} samples ({PROBLEMS} problems x {STEPS} steps at {GRID}x{GRID}, every {CAPTURE_EVERY}nd captured); one op = train_network for one epoch on tompson_default()",
            self.epochs,
            self.dataset.len()
        )]
    }
}
