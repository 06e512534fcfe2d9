//! The Auto-Keras substitute: a seeded random architecture search.
//!
//! The paper extends Auto-Keras (Bayesian network-morphism search) to
//! produce "five models with the better accuracy". Reproducing
//! Auto-Keras itself is out of scope (and immaterial — the paper only
//! consumes its output); this module explores the same axes the
//! morphism operators walk (depth, width, kernel size, residual
//! links), trains every candidate briefly on the shared dataset and
//! returns the most accurate ones.

use sfn_nn::{LayerSpec, NetworkSpec};
use sfn_rng::rngs::StdRng;
use sfn_rng::{RngExt, SeedableRng};
use sfn_surrogate::train::evaluate_divnorm;
use sfn_surrogate::{train_projection_model, ProjectionDataset, TrainConfig};

/// Search budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// Number of random candidates to generate and score.
    pub candidates: usize,
    /// Training epochs per candidate (successive-halving style short
    /// budget — ranking, not convergence).
    pub train_epochs: usize,
    /// Learning rate for candidate training.
    pub learning_rate: f64,
    /// Seed.
    pub seed: u64,
}

impl SearchConfig {
    /// A deliberately tiny budget for unit tests.
    pub fn fast() -> Self {
        Self {
            candidates: 3,
            train_epochs: 8,
            learning_rate: 1e-2,
            seed: 0x5EA7C4,
        }
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            candidates: 12,
            train_epochs: 30,
            learning_rate: 1e-2,
            seed: 0x5EA7C4,
        }
    }
}

/// Samples one random architecture around the base: width multiplier,
/// per-layer kernel choice, optional extra trunk stage, optional
/// residual links.
fn sample_candidate(base_width: usize, rng: &mut StdRng) -> NetworkSpec {
    let width = match rng.random_range(0..4u32) {
        0 => base_width,
        1 => base_width + base_width / 2,
        2 => base_width * 2,
        _ => (base_width * 3) / 4,
    }
    .max(4);
    let stages = rng.random_range(4..=6usize);
    let mut layers = Vec::new();
    let mut ch = 2usize;
    for s in 0..stages {
        let out = if s + 1 == stages { width / 2 } else { width }.max(2);
        let kernel = if rng.random_range(0..3u32) == 0 { 5 } else { 3 };
        let residual = ch == out && rng.random_range(0..2u32) == 1;
        layers.push(LayerSpec::Conv2d {
            in_ch: ch,
            out_ch: out,
            kernel,
            residual,
        });
        layers.push(LayerSpec::ReLU);
        ch = out;
    }
    layers.push(LayerSpec::Conv2d {
        in_ch: ch,
        out_ch: 1,
        kernel: 1,
        residual: false,
    });
    NetworkSpec::new(layers)
}

/// Runs the search, returning `count` specs sorted from most to least
/// accurate (by DivNorm on `dataset` after the short training budget).
pub fn architecture_search(
    base: &NetworkSpec,
    dataset: &ProjectionDataset,
    count: usize,
    cfg: &SearchConfig,
) -> Vec<NetworkSpec> {
    assert!(count > 0, "must request at least one model");
    let base_width = base
        .layers
        .iter()
        .filter_map(|l| match l {
            LayerSpec::Conv2d { out_ch, .. } => Some(*out_ch),
            _ => None,
        })
        .max()
        .unwrap_or(16);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut scored: Vec<(f64, NetworkSpec)> = Vec::new();
    // The base itself competes (network-morphism searches start there).
    let mut pool = vec![base.clone()];
    for _ in 0..cfg.candidates {
        pool.push(sample_candidate(base_width, &mut rng));
    }
    for (i, spec) in pool.into_iter().enumerate() {
        if spec.validate((2, 16, 16)).is_err() {
            continue;
        }
        let train_cfg = TrainConfig {
            epochs: cfg.train_epochs,
            batch_size: 8,
            learning_rate: cfg.learning_rate,
            seed: cfg.seed.wrapping_add(i as u64),
        };
        let (mut net, _) = train_projection_model(&spec, dataset, &train_cfg);
        let loss = evaluate_divnorm(&mut net, dataset);
        if loss.is_finite() {
            scored.push((loss, spec));
        }
    }
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    scored.into_iter().take(count).map(|(_, s)| s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_surrogate::tompson_spec;
    use sfn_workload::ProblemSet;

    fn dataset() -> ProjectionDataset {
        ProjectionDataset::generate(&ProblemSet::training(16, 1), 4, 2)
    }

    #[test]
    fn returns_requested_count_of_valid_specs() {
        let ds = dataset();
        let out = architecture_search(&tompson_spec(8), &ds, 2, &SearchConfig::fast());
        assert_eq!(out.len(), 2);
        for spec in &out {
            assert_eq!(spec.output_shape((2, 32, 32)).unwrap(), (1, 32, 32));
        }
    }

    #[test]
    fn search_is_deterministic() {
        let ds = dataset();
        let a = architecture_search(&tompson_spec(8), &ds, 2, &SearchConfig::fast());
        let b = architecture_search(&tompson_spec(8), &ds, 2, &SearchConfig::fast());
        assert_eq!(a, b);
    }

    #[test]
    fn candidates_vary_in_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let specs: Vec<NetworkSpec> = (0..8).map(|_| sample_candidate(16, &mut rng)).collect();
        let distinct: std::collections::HashSet<String> =
            specs.iter().map(|s| s.render()).collect();
        assert!(distinct.len() >= 4, "search space too narrow: {distinct:?}");
    }
}
