//! Parameter optimizer: Adam.

use crate::network::Network;

/// An optimizer updates a network's parameters from the gradients left
/// by the last backward pass.
pub trait Optimizer {
    /// Applies one update step.
    fn step(&mut self, net: &mut Network);

    /// Current learning rate.
    fn learning_rate(&self) -> f64;

    /// Overrides the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f64);
}

/// Adam (Kingma & Ba 2015) with bias correction.
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with the standard hyper-parameters.
    pub fn new(lr: f64) -> Self {
        Self::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    /// Creates Adam with explicit β₁/β₂/ε.
    pub fn with_betas(lr: f64, beta1: f64, beta2: f64, eps: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        Self {
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, net: &mut Network) {
        let mut views = net.params();
        if self.m.len() != views.len() {
            self.m = views.iter().map(|v| vec![0.0; v.values.len()]).collect();
            self.v = views.iter().map(|v| vec![0.0; v.values.len()]).collect();
            self.t = 0;
        }
        self.t += 1;
        let b1 = self.beta1 as f32;
        let b2 = self.beta2 as f32;
        let bc1 = 1.0 - (self.beta1).powi(self.t as i32);
        let bc2 = 1.0 - (self.beta2).powi(self.t as i32);
        let lr = self.lr;
        let eps = self.eps;
        for ((view, m), v) in views.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            for (((p, &g), mi), vi) in view
                .values
                .iter_mut()
                .zip(view.grads.iter())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                let m_hat = *mi as f64 / bc1;
                let v_hat = *vi as f64 / bc2;
                *p -= (lr * m_hat / (v_hat.sqrt() + eps)) as f32;
            }
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse;
    use crate::spec::{LayerSpec, NetworkSpec};
    use crate::tensor::Tensor;

    fn train(optimizer: &mut dyn Optimizer, epochs: usize) -> f64 {
        // Learn y = 2x + 1 with a single dense "neuron".
        let spec = NetworkSpec::new(vec![LayerSpec::Dense { inputs: 1, outputs: 1 }]);
        let mut net = Network::from_spec(&spec, 3).unwrap();
        let xs = Tensor::from_vec(8, 1, 1, 1, vec![-2., -1.5, -1., -0.5, 0.5, 1., 1.5, 2.]);
        let ys = xs.map(|v| 2.0 * v + 1.0);
        let mut last = f64::INFINITY;
        for _ in 0..epochs {
            let pred = net.forward(&xs, true);
            let (l, grad) = mse(&pred, &ys);
            net.backward(&grad);
            optimizer.step(&mut net);
            last = l;
        }
        last
    }

    #[test]
    fn adam_learns_linear_function() {
        let mut opt = Adam::new(0.05);
        let loss = train(&mut opt, 400);
        assert!(loss < 1e-5, "final loss {loss}");
    }

    #[test]
    fn learning_rate_accessors() {
        let mut a = Adam::new(0.001);
        a.set_learning_rate(0.1);
        assert_eq!(a.learning_rate(), 0.1);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_zero_lr() {
        let _ = Adam::new(0.0);
    }
}
