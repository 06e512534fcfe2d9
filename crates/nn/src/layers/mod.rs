//! Neural-network layers with explicit forward/backward passes.
//!
//! Layers are stateful: `forward` caches whatever the matching
//! `backward` needs (inputs, masks, argmax indices), and `backward`
//! writes parameter gradients that the optimizer consumes via
//! [`Layer::params`]. This mirrors the classic define-by-run layer
//! libraries (Torch7's `nn`, which the paper's models were written in)
//! rather than a tape-based autograd — simpler, and sufficient for
//! sequential CNNs.

pub mod activation;
pub mod conv;
pub mod dense;
pub mod dropout;
pub mod pool;

pub use activation::{ReLU, Sigmoid, Tanh};
pub use conv::Conv2d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use pool::{AvgPool, MaxPool, Upsample};

use crate::spec::LayerSpec;
use crate::tensor::Tensor;

/// Single-thread run-time estimate (ns) that layers hand to `sfn-par`'s
/// fan-out rule, from the flops a call site reports to `sfn-prof`
/// anyway. Two rates cover the crate, measured with `SFN_THREADS=1` on
/// the AVX2 reference VM: the register-blocked conv kernels, forward
/// and backward, retire 20–40 flops/ns (`kernels` bench: `conv2d/64`
/// 1.18 Mflop in 30 µs), the plain loops of the dense layers 4–17.
/// Below AVX2 the first is an under-estimate of the time, which only
/// keeps more work inline.
pub(crate) fn est_ns(flops: usize, vector_kernel: bool) -> u64 {
    (flops / if vector_kernel { 32 } else { 4 }) as u64
}

/// A mutable view of one parameter tensor and its gradient.
pub struct ParamView<'a> {
    /// Parameter values.
    pub values: &'a mut [f32],
    /// Gradient of the loss w.r.t. the values (same length).
    pub grads: &'a mut [f32],
}

/// A differentiable layer.
pub trait Layer: Send {
    /// Forward pass. `training` enables dropout noise.
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor;

    /// Backward pass using state cached by the last `forward`; returns
    /// the gradient w.r.t. the layer input and stores parameter
    /// gradients internally.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// The parameter gradients of [`Layer::backward`] without the input
    /// gradient, for a network's first layer, whose input gradient
    /// nothing reads.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let _ = self.backward(grad_out);
    }

    /// Mutable access to all (parameter, gradient) pairs; empty for
    /// parameterless layers.
    fn params(&mut self) -> Vec<ParamView<'_>>;

    /// The serialisable description of this layer.
    fn spec(&self) -> LayerSpec;

    /// Analytic FLOPs of one forward pass for a batch-1 input of shape
    /// `(c, h, w)` (multiply-accumulate counted as 2 FLOPs).
    fn flops(&self, input: (usize, usize, usize)) -> u64;
}
