//! Element-wise activation layers.

use crate::layers::{Layer, ParamView};
use crate::spec::LayerSpec;
use crate::tensor::Tensor;

/// The layers' scalar functions, shared with the inference plan's
/// stand-alone activations so the two cannot drift (`Tanh` is
/// `f32::tanh`).
pub(crate) fn relu(v: f32) -> f32 {
    v.max(0.0)
}

pub(crate) fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// Rectified linear unit `max(0, x)`.
#[derive(Default)]
pub struct ReLU {
    cached_input: Option<Tensor>,
}

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for ReLU {
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        if training {
            self.cached_input = Some(input.clone());
        }
        input.map(relu)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        assert_eq!(input.shape(), grad_out.shape(), "grad shape");
        let mut grad_in = grad_out.clone();
        for (g, &x) in grad_in.data_mut().iter_mut().zip(input.data()) {
            if x <= 0.0 {
                *g = 0.0;
            }
        }
        grad_in
    }

    fn params(&mut self) -> Vec<ParamView<'_>> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::ReLU
    }

    fn flops(&self, input: (usize, usize, usize)) -> u64 {
        let (c, h, w) = input;
        (c * h * w) as u64
    }
}

/// Logistic sigmoid `1 / (1 + e^{-x})`.
#[derive(Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let out = input.map(sigmoid);
        if training {
            self.cached_output = Some(out.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let out = self.cached_output.as_ref().expect("backward before forward");
        assert_eq!(out.shape(), grad_out.shape(), "grad shape");
        let mut grad_in = grad_out.clone();
        for (g, &y) in grad_in.data_mut().iter_mut().zip(out.data()) {
            *g *= y * (1.0 - y);
        }
        grad_in
    }

    fn params(&mut self) -> Vec<ParamView<'_>> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Sigmoid
    }

    fn flops(&self, input: (usize, usize, usize)) -> u64 {
        let (c, h, w) = input;
        4 * (c * h * w) as u64
    }
}

/// Hyperbolic tangent.
#[derive(Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a tanh layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let out = input.map(f32::tanh);
        if training {
            self.cached_output = Some(out.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let out = self.cached_output.as_ref().expect("backward before forward");
        assert_eq!(out.shape(), grad_out.shape(), "grad shape");
        let mut grad_in = grad_out.clone();
        for (g, &y) in grad_in.data_mut().iter_mut().zip(out.data()) {
            *g *= 1.0 - y * y;
        }
        grad_in
    }

    fn params(&mut self) -> Vec<ParamView<'_>> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Tanh
    }

    fn flops(&self, input: (usize, usize, usize)) -> u64 {
        let (c, h, w) = input;
        4 * (c * h * w) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut r = ReLU::new();
        let x = Tensor::from_vec(1, 1, 1, 4, vec![-2.0, -0.5, 0.5, 2.0]);
        let y = r.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 2.0]);
        let g = Tensor::from_vec(1, 1, 1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        let gi = r.backward(&g);
        assert_eq!(gi.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn sigmoid_values_and_derivative() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(1, 1, 1, 3, vec![0.0, 100.0, -100.0]);
        let y = s.forward(&x, true);
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        assert!((y.data()[1] - 1.0).abs() < 1e-6);
        assert!(y.data()[2].abs() < 1e-6);
        let g = Tensor::from_vec(1, 1, 1, 3, vec![1.0, 1.0, 1.0]);
        let gi = s.backward(&g);
        assert!((gi.data()[0] - 0.25).abs() < 1e-6);
        assert!(gi.data()[1].abs() < 1e-6);
    }

    #[test]
    fn tanh_gradcheck() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(1, 1, 1, 3, vec![-0.7, 0.1, 1.3]);
        let y = t.forward(&x, true);
        let gi = t.backward(&y.map(|_| 1.0));
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fd = (xp.data()[i].tanh() - xm.data()[i].tanh()) / (2.0 * eps);
            assert!((fd - gi.data()[i]).abs() < 1e-3, "{fd} vs {}", gi.data()[i]);
        }
    }
}
