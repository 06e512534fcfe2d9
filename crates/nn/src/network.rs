//! Sequential network container.

use crate::layers::{
    AvgPool, Conv2d, Dense, Dropout, Layer, MaxPool, ParamView, ReLU, Sigmoid, Tanh, Upsample,
};
use crate::spec::{LayerSpec, NetworkSpec, SpecError};
use crate::tensor::Tensor;
use sfn_obs::json::{obj, FromJson, JsonError, ToJson, Value};
use sfn_rng::rngs::StdRng;
use sfn_rng::SeedableRng;

/// A sequential neural network built from a [`NetworkSpec`].
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    spec: NetworkSpec,
}

/// A serialisable snapshot: architecture plus flattened weights.
#[derive(Debug, Clone)]
pub struct SavedModel {
    /// The architecture.
    pub spec: NetworkSpec,
    /// Per-layer, per-parameter-tensor weight vectors, in layer order.
    pub weights: Vec<Vec<f32>>,
}

impl ToJson for SavedModel {
    fn to_json_value(&self) -> Value {
        obj([
            ("spec", self.spec.to_json_value()),
            ("weights", self.weights.to_json_value()),
        ])
    }
}

impl FromJson for SavedModel {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        Ok(SavedModel { spec: v.field("spec")?, weights: v.field("weights")? })
    }
}

impl Network {
    /// Instantiates a network from its spec with seeded initialisation.
    ///
    /// Dropout layers get decorrelated seeds derived from `seed` and
    /// their position.
    pub fn from_spec(spec: &NetworkSpec, seed: u64) -> Result<Self, SpecError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers: Vec<Box<dyn Layer>> = Vec::with_capacity(spec.layers.len());
        for (idx, l) in spec.layers.iter().enumerate() {
            let layer: Box<dyn Layer> = match *l {
                LayerSpec::Conv2d {
                    in_ch,
                    out_ch,
                    kernel,
                    residual,
                } => {
                    if kernel % 2 == 0 || kernel == 0 {
                        return Err(SpecError(format!("layer {idx}: even kernel {kernel}")));
                    }
                    if residual && in_ch != out_ch {
                        return Err(SpecError(format!("layer {idx}: residual channel mismatch")));
                    }
                    Box::new(Conv2d::new(in_ch, out_ch, kernel, residual, &mut rng))
                }
                LayerSpec::Dense { inputs, outputs } => {
                    Box::new(Dense::new(inputs, outputs, &mut rng))
                }
                LayerSpec::ReLU => Box::new(ReLU::new()),
                LayerSpec::Sigmoid => Box::new(Sigmoid::new()),
                LayerSpec::Tanh => Box::new(Tanh::new()),
                LayerSpec::MaxPool { size } => Box::new(MaxPool::new(size)),
                LayerSpec::AvgPool { size } => Box::new(AvgPool::new(size)),
                LayerSpec::Upsample { factor } => Box::new(Upsample::new(factor)),
                LayerSpec::Dropout { p } => {
                    Box::new(Dropout::new(p, seed.wrapping_add(0x9E37 * (idx as u64 + 1))))
                }
            };
            layers.push(layer);
        }
        Ok(Self {
            layers,
            spec: spec.clone(),
        })
    }

    /// The architecture description.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Forward pass through all layers.
    pub fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, training);
        }
        x
    }

    /// Inference-mode forward pass.
    pub fn predict(&mut self, input: &Tensor) -> Tensor {
        self.forward(input, false)
    }

    /// Backward pass; must follow a `forward(_, true)` call. Returns
    /// the gradient with respect to the network input.
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// All (parameter, gradient) views across layers, in a stable order.
    pub fn params(&mut self) -> Vec<ParamView<'_>> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.spec.param_count()
    }

    /// Analytic FLOPs of a batch-1 forward pass for input `(c, h, w)`.
    ///
    /// # Panics
    /// Panics if the spec does not accept the input shape.
    pub fn flops(&self, input: (usize, usize, usize)) -> u64 {
        let mut shape = input;
        let mut total = 0u64;
        for layer in &self.layers {
            total += layer.flops(shape);
            shape = layer
                .spec()
                .output_shape(shape)
                .expect("shape mismatch in flops walk");
        }
        total
    }

    /// Snapshots the architecture and weights.
    pub fn save(&mut self) -> SavedModel {
        let weights = self
            .params()
            .into_iter()
            .map(|p| p.values.to_vec())
            .collect();
        SavedModel {
            spec: self.spec.clone(),
            weights,
        }
    }

    /// Restores a network from a snapshot.
    pub fn load(model: &SavedModel, seed: u64) -> Result<Self, SpecError> {
        let mut net = Self::from_spec(&model.spec, seed)?;
        let mut views = net.params();
        if views.len() != model.weights.len() {
            return Err(SpecError(format!(
                "snapshot has {} parameter tensors, network expects {}",
                model.weights.len(),
                views.len()
            )));
        }
        for (view, saved) in views.iter_mut().zip(&model.weights) {
            if view.values.len() != saved.len() {
                return Err(SpecError(format!(
                    "parameter tensor length mismatch: {} vs {}",
                    saved.len(),
                    view.values.len()
                )));
            }
            view.values.copy_from_slice(saved);
        }
        Ok(net)
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Network[{} layers, {} params: {}]",
            self.layers.len(),
            self.param_count(),
            self.spec.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> NetworkSpec {
        NetworkSpec::new(vec![
            LayerSpec::Conv2d { in_ch: 2, out_ch: 4, kernel: 3, residual: false },
            LayerSpec::ReLU,
            LayerSpec::MaxPool { size: 2 },
            LayerSpec::Conv2d { in_ch: 4, out_ch: 4, kernel: 3, residual: true },
            LayerSpec::ReLU,
            LayerSpec::Upsample { factor: 2 },
            LayerSpec::Conv2d { in_ch: 4, out_ch: 1, kernel: 3, residual: false },
        ])
    }

    #[test]
    fn forward_shape_follows_spec() {
        let spec = small_spec();
        let mut net = Network::from_spec(&spec, 1).unwrap();
        let x = Tensor::zeros(2, 2, 8, 8);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), (2, 1, 8, 8));
    }

    #[test]
    fn deterministic_initialisation() {
        let spec = small_spec();
        let mut a = Network::from_spec(&spec, 42).unwrap();
        let mut b = Network::from_spec(&spec, 42).unwrap();
        let x = Tensor::from_fn(1, 2, 8, 8, |_, c, h, w| (c + h * w) as f32 * 0.01);
        assert_eq!(a.predict(&x), b.predict(&x));
        let mut c = Network::from_spec(&spec, 43).unwrap();
        assert_ne!(a.predict(&x), c.predict(&x));
    }

    #[test]
    fn save_load_round_trip() {
        let spec = small_spec();
        let mut net = Network::from_spec(&spec, 7).unwrap();
        let x = Tensor::from_fn(1, 2, 8, 8, |_, c, h, w| ((c * 31 + h * 7 + w) % 5) as f32);
        let y1 = net.predict(&x);
        let snapshot = net.save();
        let json = sfn_obs::json::to_json_string(&snapshot);
        let back: SavedModel = sfn_obs::json::from_json_str(&json).unwrap();
        let mut restored = Network::load(&back, 999).unwrap();
        let y2 = restored.predict(&x);
        assert_eq!(y1, y2);
    }

    #[test]
    fn load_rejects_mismatched_weights() {
        let spec = small_spec();
        let mut net = Network::from_spec(&spec, 7).unwrap();
        let mut snap = net.save();
        snap.weights[0].pop();
        assert!(Network::load(&snap, 0).is_err());
        let mut snap2 = net.save();
        snap2.weights.pop();
        assert!(Network::load(&snap2, 0).is_err());
    }

    #[test]
    fn end_to_end_gradcheck() {
        // Small net, loss = 0.5 Σ y².
        let spec = NetworkSpec::new(vec![
            LayerSpec::Conv2d { in_ch: 1, out_ch: 2, kernel: 3, residual: false },
            LayerSpec::Tanh,
            LayerSpec::Conv2d { in_ch: 2, out_ch: 1, kernel: 3, residual: false },
        ]);
        let mut net = Network::from_spec(&spec, 11).unwrap();
        let x = Tensor::from_fn(1, 1, 5, 5, |_, _, h, w| ((h * 3 + w * 5) % 7) as f32 / 3.0 - 1.0);
        let y = net.forward(&x, true);
        let gi = net.backward(&y);
        let loss = |net: &mut Network, x: &Tensor| -> f64 {
            let y = net.forward(x, true);
            y.data().iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum()
        };
        let eps = 1e-2f32;
        let mut xm = x.clone();
        for &i in &[0usize, 6, 12, 18, 24] {
            let orig = xm.data()[i];
            xm.data_mut()[i] = orig + eps;
            let lp = loss(&mut net, &xm);
            xm.data_mut()[i] = orig - eps;
            let lm = loss(&mut net, &xm);
            xm.data_mut()[i] = orig;
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (fd - gi.data()[i]).abs() <= 2e-2 * fd.abs().max(gi.data()[i].abs()).max(0.1),
                "input {i}: fd {fd} vs {}",
                gi.data()[i]
            );
        }
    }

    #[test]
    fn flops_walk_matches_manual_sum() {
        let spec = small_spec();
        let net = Network::from_spec(&spec, 1).unwrap();
        // conv(2->4,k3)@8x8 + relu + pool + conv(4->4,k3,res)@4x4 + relu
        // + up + conv(4->1,k3)@8x8
        let manual: u64 = 2 * (4 * 2 * 9) * 64
            + 4 * 64
            + 4 * 64
            + (2 * (4 * 4 * 9) * 16 + 4 * 16)
            + 4 * 16
            + 4 * 16 * 4
            + 2 * (4 * 9) * 64;
        assert_eq!(net.flops((2, 8, 8)), manual);
    }

    #[test]
    fn invalid_spec_rejected_at_construction() {
        let spec = NetworkSpec::new(vec![LayerSpec::Conv2d {
            in_ch: 2,
            out_ch: 4,
            kernel: 4,
            residual: false,
        }]);
        assert!(Network::from_spec(&spec, 0).is_err());
    }
}
