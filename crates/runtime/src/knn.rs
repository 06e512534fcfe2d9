//! KNN prediction of the final quality loss (§6.1).
//!
//! "During the offline phase, we test the neural network models … with
//! 128 small input problems. For each test, we collect a pair of data
//! `(CumDivNorm_final, Q_loss)` and put them into a historical
//! database. … we find k pairs whose `CumDivNorm_final` are the
//! closest … and use the average of `Q_loss` in the k pairs. … we
//! choose k = 4. We organise all data pairs as a binary search tree,
//! such that finding the four pairs is cheap."

use crate::error::RuntimeError;

/// The historical `(CumDivNorm_final, Q_loss)` database with O(log n)
/// neighbour lookup over a sorted key array (the flat-array equivalent
/// of the paper's binary search tree).
#[derive(Debug, Clone)]
pub struct KnnDatabase {
    /// Pairs sorted by `CumDivNorm_final`.
    pairs: Vec<(f64, f64)>,
    k: usize,
}

impl KnnDatabase {
    /// Builds a database from unsorted pairs with the paper's `k = 4`.
    ///
    /// Fails with a typed [`RuntimeError`] on an empty database or a
    /// NaN/∞ pair — a corrupted offline artifact must surface as a
    /// recoverable error, not a panic inside the online runtime.
    pub fn new(pairs: Vec<(f64, f64)>) -> Result<Self, RuntimeError> {
        Self::with_k(pairs, 4)
    }

    /// Builds a database with an explicit `k`.
    pub fn with_k(mut pairs: Vec<(f64, f64)>, k: usize) -> Result<Self, RuntimeError> {
        if k == 0 {
            return Err(RuntimeError::ZeroNeighbours);
        }
        if pairs.is_empty() {
            return Err(RuntimeError::EmptyKnnDatabase);
        }
        if let Some((index, &(key, value))) = pairs
            .iter()
            .enumerate()
            .find(|(_, (c, q))| !c.is_finite() || !q.is_finite())
        {
            return Err(RuntimeError::NonFiniteKnnPair { index, key, value });
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        Ok(Self { pairs, k })
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the database holds no pairs (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The configured neighbour count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Predicts `Q_loss` for a `CumDivNorm_final` value: the mean
    /// `Q_loss` of the `k` nearest keys (two-pointer expansion around
    /// the binary-search insertion point).
    pub fn predict(&self, cum_div_norm_final: f64) -> f64 {
        let n = self.pairs.len();
        let k = self.k.min(n);
        let pos = self
            .pairs
            .partition_point(|&(c, _)| c < cum_div_norm_final);
        // Expand the window [lo, hi) around pos picking nearest keys.
        let mut lo = pos;
        let mut hi = pos;
        while hi - lo < k {
            if lo == 0 {
                hi += 1;
            } else if hi == n {
                lo -= 1;
            } else {
                let d_lo = (cum_div_norm_final - self.pairs[lo - 1].0).abs();
                let d_hi = (self.pairs[hi].0 - cum_div_norm_final).abs();
                if d_lo <= d_hi {
                    lo -= 1;
                } else {
                    hi += 1;
                }
            }
        }
        let sum: f64 = self.pairs[lo..hi].iter().map(|&(_, q)| q).sum();
        sum / k as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn papers_worked_example() {
        // §6.1: pairs (101, 0.09), (112, 0.11), (105, 0.10), (109, 0.11);
        // predicted CumDivNorm_final = 108 -> Q_loss = 0.1025.
        let db = KnnDatabase::new(vec![(101.0, 0.09), (112.0, 0.11), (105.0, 0.10), (109.0, 0.11)]).unwrap();
        let q = db.predict(108.0);
        assert!((q - 0.1025).abs() < 1e-12, "predicted {q}");
    }

    #[test]
    fn nearest_neighbours_chosen_not_first_k() {
        let db = KnnDatabase::with_k(
            vec![(0.0, 0.0), (1.0, 0.0), (100.0, 1.0), (101.0, 1.0), (102.0, 1.0)],
            2,
        )
        .unwrap();
        assert_eq!(db.predict(100.5), 1.0);
        assert_eq!(db.predict(0.5), 0.0);
    }

    #[test]
    fn k_larger_than_database_uses_everything() {
        let db = KnnDatabase::with_k(vec![(1.0, 0.1), (2.0, 0.3)], 10).unwrap();
        assert!((db.predict(1.5) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn monotone_database_gives_monotone_predictions() {
        let pairs: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, i as f64 * 0.001)).collect();
        let db = KnnDatabase::new(pairs).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for x in [0.0, 10.0, 20.0, 30.0, 45.0, 60.0] {
            let q = db.predict(x);
            assert!(q >= prev, "non-monotone at {x}");
            prev = q;
        }
    }

    #[test]
    fn extrapolation_clamps_to_extremes() {
        let db = KnnDatabase::new(vec![(10.0, 0.01), (20.0, 0.02), (30.0, 0.03), (40.0, 0.04)]).unwrap();
        // Far below: the 4 nearest are all of them -> mean 0.025.
        assert!((db.predict(-100.0) - 0.025).abs() < 1e-12);
        assert!((db.predict(1e9) - 0.025).abs() < 1e-12);
    }

    #[test]
    fn construction_failures_are_typed_errors() {
        use crate::error::RuntimeError;
        assert_eq!(KnnDatabase::new(vec![]).unwrap_err(), RuntimeError::EmptyKnnDatabase);
        assert_eq!(
            KnnDatabase::with_k(vec![(1.0, 0.1)], 0).unwrap_err(),
            RuntimeError::ZeroNeighbours
        );
        match KnnDatabase::new(vec![(1.0, 0.1), (f64::NAN, 0.2)]).unwrap_err() {
            RuntimeError::NonFiniteKnnPair { index, key, .. } => {
                assert_eq!(index, 1);
                assert!(key.is_nan());
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
