//! Fully connected layer on flattened features.

use crate::init::he_normal;
use crate::layers::{Layer, ParamView};
use crate::spec::LayerSpec;
use crate::tensor::Tensor;
use sfn_rng::rngs::StdRng;

/// Dense layer: `y = W·x + b`, with `W` stored row-major
/// `outputs × inputs`. Input tensors of any `c×h×w = inputs` are
/// accepted and flattened; the output has shape `[n, outputs, 1, 1]`.
pub struct Dense {
    inputs: usize,
    outputs: usize,
    weight: Vec<f32>,
    bias: Vec<f32>,
    grad_weight: Vec<f32>,
    grad_bias: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-initialised weights.
    pub fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        assert!(inputs > 0 && outputs > 0, "sizes must be positive");
        Self {
            inputs,
            outputs,
            weight: he_normal(rng, inputs, inputs * outputs),
            bias: vec![0.0; outputs],
            grad_weight: vec![0.0; inputs * outputs],
            grad_bias: vec![0.0; outputs],
            cached_input: None,
        }
    }

    /// Builds from explicit weights.
    pub fn from_weights(inputs: usize, outputs: usize, weight: Vec<f32>, bias: Vec<f32>) -> Self {
        assert_eq!(weight.len(), inputs * outputs, "weight length");
        assert_eq!(bias.len(), outputs, "bias length");
        Self {
            inputs,
            outputs,
            grad_weight: vec![0.0; weight.len()],
            grad_bias: vec![0.0; bias.len()],
            weight,
            bias,
            cached_input: None,
        }
    }

    /// Weight slice (`outputs × inputs`, row-major).
    pub fn weight(&self) -> &[f32] {
        &self.weight
    }

    /// Bias slice.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let (n, c, h, w) = input.shape();
        assert_eq!(c * h * w, self.inputs, "dense input features");
        let mut out = Tensor::zeros(n, self.outputs, 1, 1);
        let inputs = self.inputs;
        let outputs = self.outputs;
        let est_ns = super::est_ns(2 * n * inputs * outputs, false);
        sfn_par::for_each_chunk_mut(out.data_mut(), outputs, est_ns, |nn, row| {
                let x = &input.data()[nn * inputs..(nn + 1) * inputs];
                for (o, out_v) in row.iter_mut().enumerate() {
                    let wrow = &self.weight[o * inputs..(o + 1) * inputs];
                    let mut acc = self.bias[o];
                    for (wv, xv) in wrow.iter().zip(x) {
                        acc += wv * xv;
                    }
                    *out_v = acc;
                }
            });
        if training {
            self.cached_input = Some(input.clone());
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward before forward")
            .clone();
        let (n, c, h, w) = input.shape();
        assert_eq!(grad_out.shape(), (n, self.outputs, 1, 1), "grad shape");
        let inputs = self.inputs;
        let outputs = self.outputs;
        let est_ns = super::est_ns(2 * n * inputs * outputs, false);

        // Parameter gradients, parallel over output rows.
        sfn_par::for_each_chunk_zip_mut(
            &mut self.grad_weight,
            inputs,
            &mut self.grad_bias,
            est_ns,
            |o, gw, gb| {
                for g in gw.iter_mut() {
                    *g = 0.0;
                }
                *gb = 0.0;
                for nn in 0..n {
                    let g = grad_out.data()[nn * outputs + o];
                    *gb += g;
                    let x = &input.data()[nn * inputs..(nn + 1) * inputs];
                    for (gwv, xv) in gw.iter_mut().zip(x) {
                        *gwv += g * xv;
                    }
                }
            });

        // Input gradient: gᵀ·W, parallel over samples.
        let mut grad_in = Tensor::zeros(n, c, h, w);
        sfn_par::for_each_chunk_mut(grad_in.data_mut(), inputs, est_ns, |nn, gi| {
                for o in 0..outputs {
                    let g = grad_out.data()[nn * outputs + o];
                    if g == 0.0 {
                        continue;
                    }
                    let wrow = &self.weight[o * inputs..(o + 1) * inputs];
                    for (giv, wv) in gi.iter_mut().zip(wrow) {
                        *giv += g * wv;
                    }
                }
            });
        grad_in
    }

    fn params(&mut self) -> Vec<ParamView<'_>> {
        vec![
            ParamView {
                values: &mut self.weight,
                grads: &mut self.grad_weight,
            },
            ParamView {
                values: &mut self.bias,
                grads: &mut self.grad_bias,
            },
        ]
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Dense {
            inputs: self.inputs,
            outputs: self.outputs,
        }
    }

    fn flops(&self, _input: (usize, usize, usize)) -> u64 {
        2 * (self.inputs * self.outputs) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng_from_seed;

    #[test]
    fn forward_small_case_by_hand() {
        let mut d = Dense::from_weights(2, 2, vec![1.0, 2.0, 3.0, 4.0], vec![0.5, -0.5]);
        let x = Tensor::from_vec(1, 2, 1, 1, vec![10.0, 20.0]);
        let y = d.forward(&x, false);
        // [1*10+2*20+0.5, 3*10+4*20-0.5] = [50.5, 109.5]
        assert_eq!(y.data(), &[50.5, 109.5]);
    }

    #[test]
    fn accepts_spatial_input() {
        let mut rng = rng_from_seed(1);
        let mut d = Dense::new(12, 3, &mut rng);
        let x = Tensor::from_fn(2, 3, 2, 2, |n, c, h, w| (n + c + h + w) as f32);
        let y = d.forward(&x, false);
        assert_eq!(y.shape(), (2, 3, 1, 1));
    }

    #[test]
    fn gradcheck() {
        let mut rng = rng_from_seed(2);
        let mut d = Dense::new(6, 4, &mut rng);
        let x = Tensor::from_fn(2, 6, 1, 1, |n, c, _, _| ((n * 5 + c * 3) % 7) as f32 / 3.0 - 1.0);
        let out = d.forward(&x, true);
        let grad_in = d.backward(&out);
        let loss = |d: &mut Dense, x: &Tensor| -> f64 {
            let o = d.forward(x, true);
            o.data().iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum()
        };
        let eps = 1e-2f32;
        let gw = d.grad_weight.clone();
        for &wi in &[0usize, 5, 11, 17, 23] {
            let orig = d.weight[wi];
            d.weight[wi] = orig + eps;
            let lp = loss(&mut d, &x);
            d.weight[wi] = orig - eps;
            let lm = loss(&mut d, &x);
            d.weight[wi] = orig;
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (fd - gw[wi]).abs() <= 1e-2 * fd.abs().max(1.0),
                "w{wi}: {fd} vs {}",
                gw[wi]
            );
        }
        let mut xm = x.clone();
        for &ii in &[0usize, 4, 9] {
            let orig = xm.data()[ii];
            xm.data_mut()[ii] = orig + eps;
            let lp = loss(&mut d, &xm);
            xm.data_mut()[ii] = orig - eps;
            let lm = loss(&mut d, &xm);
            xm.data_mut()[ii] = orig;
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (fd - grad_in.data()[ii]).abs() <= 1e-2 * fd.abs().max(1.0),
                "x{ii}: {fd} vs {}",
                grad_in.data()[ii]
            );
        }
    }

    #[test]
    fn bias_gradient_sums_over_batch() {
        let mut d = Dense::from_weights(1, 1, vec![0.0], vec![0.0]);
        let x = Tensor::from_vec(3, 1, 1, 1, vec![1.0, 2.0, 3.0]);
        let _ = d.forward(&x, true);
        let g = Tensor::from_vec(3, 1, 1, 1, vec![1.0, 1.0, 1.0]);
        let _ = d.backward(&g);
        assert_eq!(d.grad_bias, vec![3.0]);
        assert_eq!(d.grad_weight, vec![6.0]); // Σ g·x = 1+2+3
    }
}
