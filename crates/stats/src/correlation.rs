//! Correlation coefficients (paper Eq. 10 and Eq. 11).
//!
//! §6.1 of the paper quantifies how well the runtime-observable
//! `CumDivNorm` tracks the final quality loss using Pearson's
//! product-moment correlation and Spearman's rank correlation, reporting
//! `r_p = 0.61` and `r_s = 0.79` over 20,480 problems × 128 steps.

/// Pearson's product-moment correlation coefficient (Eq. 10).
///
/// Returns `None` when the inputs are shorter than two elements, have
/// mismatched lengths, or either input has zero variance (the
/// coefficient is undefined in those cases).
///
/// ```
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [2.0, 4.0, 6.0, 8.0];
/// assert!((sfn_stats::pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        let dx = xi - mx;
        let dy = yi - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    let denom = (sxx * syy).sqrt();
    if denom == 0.0 || !denom.is_finite() {
        None
    } else {
        Some(sxy / denom)
    }
}

/// Spearman's rank correlation coefficient (Eq. 11).
///
/// Computed as the Pearson correlation of the rank vectors, which is the
/// standard generalisation of Eq. 11 that stays correct in the presence
/// of ties (ties receive their average rank). For tie-free data this is
/// numerically identical to `1 - 6 Σd²/(n(n²-1))`.
///
/// ```
/// // A monotone but non-linear relationship has perfect rank correlation.
/// let x = [1.0, 2.0, 3.0, 4.0, 5.0];
/// let y: Vec<f64> = x.iter().map(|v: &f64| v.exp()).collect();
/// assert!((sfn_stats::spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
/// ```
pub fn spearman(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let rx = average_ranks(x);
    let ry = average_ranks(y);
    pearson(&rx, &ry)
}

/// Assigns 1-based ranks, averaging over groups of tied values.
///
/// Non-finite values sort after finite ones via `total_cmp`, keeping the
/// function total; callers with NaNs get a deterministic (if
/// meaningless) answer rather than a panic.
pub fn average_ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        // Find the extent of the tie group starting at i.
        let mut j = i + 1;
        while j < n && values[idx[j]] == values[idx[i]] {
            j += 1;
        }
        // Average 1-based rank of positions i..j.
        let avg = (i + 1 + j) as f64 / 2.0;
        for &k in &idx[i..j] {
            ranks[k] = avg;
        }
        i = j;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_positive() {
        let x = [1.0, 2.0, 3.0];
        let y = [10.0, 20.0, 30.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_negative() {
        let x = [1.0, 2.0, 3.0];
        let y = [3.0, 2.0, 1.0];
        assert!((pearson(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_uncorrelated_orthogonal() {
        // Symmetric design: x deviations and y deviations are orthogonal.
        let x = [-1.0, 0.0, 1.0, 0.0];
        let y = [0.0, -1.0, 0.0, 1.0];
        assert!(pearson(&x, &y).unwrap().abs() < 1e-12);
    }

    #[test]
    fn pearson_rejects_degenerate() {
        assert_eq!(pearson(&[1.0], &[1.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[1.0]), None);
        assert_eq!(pearson(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn pearson_invariant_to_affine_transform() {
        let x = [0.3, 1.7, 2.9, 4.1, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0];
        let base = pearson(&x, &y).unwrap();
        let xs: Vec<f64> = x.iter().map(|v| 3.0 * v - 7.0).collect();
        let ys: Vec<f64> = y.iter().map(|v| 0.5 * v + 11.0).collect();
        assert!((pearson(&xs, &ys).unwrap() - base).abs() < 1e-12);
    }

    #[test]
    fn ranks_simple() {
        assert_eq!(average_ranks(&[30.0, 10.0, 20.0]), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn ranks_with_ties() {
        // 10,20,20,30 -> ranks 1, 2.5, 2.5, 4
        assert_eq!(
            average_ranks(&[10.0, 20.0, 20.0, 30.0]),
            vec![1.0, 2.5, 2.5, 4.0]
        );
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [1.0, 8.0, 27.0, 64.0];
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_matches_d2_formula_without_ties() {
        let x = [0.3, 1.7, 2.9, 4.1, 5.0, 0.1];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0, 0.5];
        let a = spearman(&x, &y).unwrap();
        // Eq. 11 verbatim: 1 − 6 Σ d² / (n (n² − 1)), valid without ties.
        let (rx, ry) = (average_ranks(&x), average_ranks(&y));
        let n = x.len() as f64;
        let d2: f64 = rx.iter().zip(&ry).map(|(a, b)| (a - b) * (a - b)).sum();
        let b = 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn spearman_reversed_is_minus_one() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert!((spearman(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }
}
