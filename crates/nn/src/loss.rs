//! Loss functions returning `(loss, dL/dpred)` pairs.

use crate::tensor::Tensor;

/// Mean squared error `L = 1/N Σ (p − t)²` and its gradient
/// `dL/dp = 2(p − t)/N`.
///
/// # Panics
/// Panics on shape mismatch.
pub fn mse(pred: &Tensor, target: &Tensor) -> (f64, Tensor) {
    assert_eq!(pred.shape(), target.shape(), "loss shape mismatch");
    let n = pred.len() as f64;
    let mut grad = pred.clone();
    let mut loss = 0.0f64;
    for (g, &t) in grad.data_mut().iter_mut().zip(target.data()) {
        let d = (*g - t) as f64;
        loss += d * d;
        *g = (2.0 * d / n) as f32;
    }
    (loss / n, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_zero_for_equal_tensors() {
        let a = Tensor::from_vec(1, 1, 1, 3, vec![1., 2., 3.]);
        let (l, g) = mse(&a, &a);
        assert_eq!(l, 0.0);
        assert!(g.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn mse_value_and_gradient() {
        let p = Tensor::from_vec(1, 1, 1, 2, vec![3.0, 1.0]);
        let t = Tensor::from_vec(1, 1, 1, 2, vec![1.0, 1.0]);
        let (l, g) = mse(&p, &t);
        assert!((l - 2.0).abs() < 1e-12); // (4 + 0)/2
        assert_eq!(g.data(), &[2.0, 0.0]); // 2*2/2, 0
    }

    #[test]
    fn gradient_is_descent_direction() {
        // Stepping against the gradient must reduce the loss.
        let p = Tensor::from_vec(1, 1, 1, 4, vec![1.0, -2.0, 0.5, 3.0]);
        let t = Tensor::from_vec(1, 1, 1, 4, vec![0.0, 1.0, 0.5, -1.0]);
        let (l0, g) = mse(&p, &t);
        let mut p2 = p.clone();
        p2.add_scaled(&g, -0.1);
        let (l1, _) = mse(&p2, &t);
        assert!(l1 < l0);
    }
}
