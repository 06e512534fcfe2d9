//! Weight initialisation.

use sfn_rng::rngs::StdRng;
use sfn_rng::{RngExt, SeedableRng};

/// He (Kaiming) initialisation for ReLU networks: normal with
/// `σ = sqrt(2 / fan_in)`, via Box-Muller from uniform samples.
pub fn he_normal(rng: &mut StdRng, fan_in: usize, count: usize) -> Vec<f32> {
    let sigma = (2.0 / fan_in.max(1) as f64).sqrt();
    gaussian(rng, count, sigma)
}

/// Zero-mean Gaussian samples with standard deviation `sigma`.
pub fn gaussian(rng: &mut StdRng, count: usize, sigma: f64) -> Vec<f32> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        // Box-Muller transform.
        let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.random_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        out.push((sigma * r * theta.cos()) as f32);
        if out.len() < count {
            out.push((sigma * r * theta.sin()) as f32);
        }
    }
    out
}

/// Deterministic RNG from a seed.
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = he_normal(&mut rng_from_seed(7), 64, 100);
        let b = he_normal(&mut rng_from_seed(7), 64, 100);
        assert_eq!(a, b);
    }

    // Golden values pin `rng_from_seed` to the exact xoshiro256++
    // stream: every saved model's initial weights depend on it, so a
    // silent generator change would corrupt seeded reproducibility.
    #[test]
    fn golden_seed_stream_is_pinned() {
        let mut r = rng_from_seed(0);
        assert_eq!(r.next_u64(), 5987356902031041503);
        assert_eq!(r.next_u64(), 7051070477665621255);
        let mut r = rng_from_seed(42);
        assert_eq!(r.next_u64(), 15021278609987233951);
    }

    #[test]
    fn he_variance_close_to_target() {
        let fan_in = 128;
        let v = he_normal(&mut rng_from_seed(1), fan_in, 100_000);
        let mean: f64 = v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
        let var: f64 = v.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / v.len() as f64;
        let target = 2.0 / fan_in as f64;
        assert!(mean.abs() < 0.002, "mean {mean}");
        assert!(
            (var - target).abs() / target < 0.05,
            "var {var} vs target {target}"
        );
    }

    #[test]
    fn gaussian_odd_count() {
        let v = gaussian(&mut rng_from_seed(5), 7, 1.0);
        assert_eq!(v.len(), 7);
        assert!(v.iter().all(|x| x.is_finite()));
    }
}
