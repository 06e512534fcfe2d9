//! Ordinary least-squares linear regression.
//!
//! §6.1 of the paper predicts `CumDivNorm` at the final time step by
//! fitting `f_k(x) = a·x + b` over the last few time steps of a check
//! interval with the least-squares method. This module provides that
//! fit.

/// A fitted simple linear regression `y = slope · x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearRegression {
    /// Slope `a` of the fitted line.
    pub slope: f64,
    /// Intercept `b` of the fitted line.
    pub intercept: f64,
}

impl LinearRegression {
    /// Fits a line through `(x, y)` pairs by ordinary least squares.
    ///
    /// Returns `None` if fewer than two points are supplied, the lengths
    /// differ, or all `x` are identical (vertical line — the slope is
    /// undefined).
    ///
    /// ```
    /// use sfn_stats::LinearRegression;
    /// let lr = LinearRegression::fit(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0]).unwrap();
    /// assert!((lr.slope - 2.0).abs() < 1e-12);
    /// assert!((lr.intercept - 1.0).abs() < 1e-12);
    /// ```
    pub fn fit(x: &[f64], y: &[f64]) -> Option<Self> {
        if x.len() != y.len() || x.len() < 2 {
            return None;
        }
        let n = x.len() as f64;
        let mx = x.iter().sum::<f64>() / n;
        let my = y.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for (&xi, &yi) in x.iter().zip(y) {
            let dx = xi - mx;
            sxx += dx * dx;
            sxy += dx * (yi - my);
        }
        if sxx == 0.0 || !sxx.is_finite() {
            return None;
        }
        let slope = sxy / sxx;
        let intercept = my - slope * mx;
        if !slope.is_finite() || !intercept.is_finite() {
            return None;
        }
        Some(Self { slope, intercept })
    }

    /// Evaluates the fitted line at `x`.
    #[inline]
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_on_affine_data() {
        let x = [1.0, 2.0, 5.0, 9.0];
        let y: Vec<f64> = x.iter().map(|v| -3.5 * v + 0.25).collect();
        let lr = LinearRegression::fit(&x, &y).unwrap();
        assert!((lr.slope + 3.5).abs() < 1e-12);
        assert!((lr.intercept - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(LinearRegression::fit(&[1.0], &[2.0]).is_none());
        assert!(LinearRegression::fit(&[1.0, 1.0], &[2.0, 3.0]).is_none());
        assert!(LinearRegression::fit(&[1.0, 2.0], &[2.0]).is_none());
    }

    #[test]
    fn least_squares_minimises_residuals() {
        // Perturb the OLS solution; every perturbation must increase SSE.
        let x = [0.0, 1.0, 2.0, 3.0, 4.0];
        let y = [1.0, 2.2, 2.8, 4.4, 4.9];
        let lr = LinearRegression::fit(&x, &y).unwrap();
        let sse = |s: f64, i: f64| -> f64 {
            x.iter()
                .zip(&y)
                .map(|(&xi, &yi)| {
                    let e = yi - (s * xi + i);
                    e * e
                })
                .sum()
        };
        let best = sse(lr.slope, lr.intercept);
        for ds in [-0.05, 0.05] {
            for di in [-0.05, 0.05] {
                assert!(sse(lr.slope + ds, lr.intercept + di) > best);
            }
        }
    }

    #[test]
    fn extrapolation_used_like_the_runtime() {
        // CumDivNorm-style monotone data: fit on steps 2..5, predict step 63.
        let y = [10.0, 12.0, 14.0, 16.0];
        let x = [2.0, 3.0, 4.0, 5.0];
        let lr = LinearRegression::fit(&x, &y).unwrap();
        assert!((lr.predict(63.0) - (6.0 + 2.0 * 63.0)).abs() < 1e-9);
    }
}
