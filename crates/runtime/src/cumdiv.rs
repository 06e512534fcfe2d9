//! `CumDivNorm` accumulation and extrapolation (§6.1).
//!
//! "We use five time steps to build a linear regression model … we
//! skip the first five time steps and build the regression model after
//! each five steps. Also, in each five time steps (a check interval)
//! … we skip the first two to make sure the trend is stable and only
//! use the remaining three to build the model."

use sfn_stats::LinearRegression;

/// Accumulates per-step `DivNorm` values and predicts the final
/// `CumDivNorm` by extrapolating the recent growth rate.
#[derive(Debug, Clone)]
pub struct CumDivNormTracker {
    cum: Vec<f64>,
    warmup_steps: usize,
    skip_per_interval: usize,
}

impl CumDivNormTracker {
    /// Creates a tracker with the paper's defaults: skip the first 5
    /// steps entirely, and within each interval's fit window skip the
    /// first 2 points.
    pub fn new() -> Self {
        Self::with_params(5, 2)
    }

    /// Custom warm-up length and per-interval skip count.
    pub fn with_params(warmup_steps: usize, skip_per_interval: usize) -> Self {
        Self {
            cum: Vec::new(),
            warmup_steps,
            skip_per_interval,
        }
    }

    /// Records the `DivNorm` of a completed step (Eq. 9 accumulation).
    pub fn push(&mut self, div_norm: f64) {
        let prev = self.cum.last().copied().unwrap_or(0.0);
        self.cum.push(prev + div_norm.max(0.0));
    }

    /// Steps recorded so far.
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// True when no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }

    /// The running `CumDivNorm` series.
    pub fn series(&self) -> &[f64] {
        &self.cum
    }

    /// Current accumulated value.
    pub fn current(&self) -> f64 {
        self.cum.last().copied().unwrap_or(0.0)
    }

    /// Clears the history (used when the scheduler restarts with PCG).
    pub fn reset(&mut self) {
        self.cum.clear();
    }

    /// Predicts `CumDivNorm` at step `final_step` (1-based count of
    /// total steps) by fitting the last `window` points, skipping the
    /// first `skip_per_interval` of them.
    ///
    /// Returns `None` during warm-up or when the fit is degenerate.
    pub fn predict_final(&self, window: usize, final_step: usize) -> Option<f64> {
        let n = self.cum.len();
        if n <= self.warmup_steps || n < window {
            return None;
        }
        let usable = window.saturating_sub(self.skip_per_interval);
        if usable < 2 {
            return None;
        }
        let start = n - usable;
        let xs: Vec<f64> = (start..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = self.cum[start..n].to_vec();
        let fit = LinearRegression::fit(&xs, &ys)?;
        // Growth can never be negative: CumDivNorm is non-decreasing.
        let slope = fit.slope.max(0.0);
        let last = self.cum[n - 1];
        let remaining = final_step.saturating_sub(n) as f64;
        Some(last + slope * remaining)
    }
}

impl Default for CumDivNormTracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_monotonically() {
        let mut t = CumDivNormTracker::new();
        for v in [1.0, 2.0, 0.5] {
            t.push(v);
        }
        assert_eq!(t.series(), &[1.0, 3.0, 3.5]);
        assert_eq!(t.current(), 3.5);
    }

    #[test]
    fn negative_divnorm_is_clamped() {
        let mut t = CumDivNormTracker::new();
        t.push(-5.0);
        assert_eq!(t.current(), 0.0);
    }

    #[test]
    fn no_prediction_during_warmup() {
        let mut t = CumDivNormTracker::new();
        for _ in 0..5 {
            t.push(1.0);
        }
        assert_eq!(t.predict_final(5, 128), None);
    }

    #[test]
    fn exact_extrapolation_of_linear_growth() {
        let mut t = CumDivNormTracker::new();
        // Constant DivNorm 2.0 -> CumDivNorm = 2·k exactly.
        for _ in 0..10 {
            t.push(2.0);
        }
        let predicted = t.predict_final(5, 128).expect("prediction available");
        assert!((predicted - 256.0).abs() < 1e-9, "predicted {predicted}");
    }

    #[test]
    fn early_transient_is_ignored() {
        let mut t = CumDivNormTracker::new();
        // Wild warm-up, then a steady 1.0 growth rate.
        for v in [50.0, 30.0, 10.0, 5.0, 2.0] {
            t.push(v);
        }
        for _ in 0..10 {
            t.push(1.0);
        }
        let n = t.len();
        let predicted = t.predict_final(5, n + 10).expect("prediction");
        assert!((predicted - (t.current() + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_state() {
        let mut t = CumDivNormTracker::new();
        for _ in 0..8 {
            t.push(1.0);
        }
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.predict_final(5, 100), None);
    }

    #[test]
    fn too_short_history_yields_none() {
        // Shorter than the fit window (even past warm-up): no prediction
        // — the scheduler treats this as "keep the current model".
        let mut t = CumDivNormTracker::with_params(2, 2);
        for _ in 0..4 {
            t.push(1.0);
        }
        assert_eq!(t.predict_final(5, 100), None);
        // A window whose usable part is < 2 points is degenerate too.
        assert_eq!(t.predict_final(3, 100), None);
    }

    #[test]
    fn all_zero_history_predicts_zero() {
        // An exact projector produces DivNorm ~ 0 every step; the
        // extrapolation must stay finite and pinned at zero rather than
        // failing or inventing growth.
        let mut t = CumDivNormTracker::new();
        for _ in 0..10 {
            t.push(0.0);
        }
        let p = t.predict_final(5, 128).expect("flat history still fits");
        assert_eq!(p, 0.0);
    }

    #[test]
    fn non_finite_divnorm_does_not_poison_the_series() {
        // `push` clamps via f64::max(0.0), which maps NaN to 0.0 — a
        // corrupted step cannot poison every later prediction.
        let mut t = CumDivNormTracker::new();
        for _ in 0..6 {
            t.push(1.0);
        }
        t.push(f64::NAN);
        for _ in 0..5 {
            t.push(1.0);
        }
        let p = t.predict_final(5, 64).expect("prediction");
        assert!(p.is_finite(), "prediction {p} not finite");
    }

    #[test]
    fn prediction_at_current_step_is_current_value() {
        let mut t = CumDivNormTracker::new();
        for _ in 0..12 {
            t.push(3.0);
        }
        let p = t.predict_final(5, 12).expect("prediction");
        assert!((p - t.current()).abs() < 1e-9);
    }
}
