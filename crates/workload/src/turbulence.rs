//! Pseudo-random turbulent initial velocity fields.
//!
//! A stream function `ψ(x, y) = Σ_m a_m sin(k_m·x + φ_m)` built from
//! random Fourier modes is differentiated analytically to produce the
//! velocity `u = ∂ψ/∂y, v = −∂ψ/∂x`, which is divergence-free in the
//! continuum. Sampling `ψ`'s derivatives directly on the staggered
//! faces gives a discretely *almost* divergence-free field with a
//! multi-scale spectrum — our substitute for wavelet turbulence
//! [Kim et al. 2008].

use sfn_grid::MacGrid;
use sfn_rng::rngs::StdRng;
use sfn_rng::{RngExt, SeedableRng};

/// Parameters of the random turbulence spectrum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TurbulenceSpec {
    /// Number of random Fourier modes.
    pub modes: usize,
    /// Smallest wavelength in cells (highest spatial frequency).
    pub min_wavelength: f64,
    /// Largest wavelength in cells (lowest spatial frequency).
    pub max_wavelength: f64,
    /// RMS velocity target (grid units per time unit).
    pub rms_velocity: f64,
}

impl Default for TurbulenceSpec {
    fn default() -> Self {
        Self {
            modes: 24,
            min_wavelength: 4.0,
            max_wavelength: 64.0,
            rms_velocity: 1.0,
        }
    }
}

struct Mode {
    kx: f64,
    ky: f64,
    amp: f64,
    phase: f64,
}

impl TurbulenceSpec {
    fn sample_modes(&self, rng: &mut StdRng) -> Vec<Mode> {
        assert!(self.modes > 0, "need at least one mode");
        assert!(
            self.min_wavelength > 0.0 && self.max_wavelength >= self.min_wavelength,
            "bad wavelength range"
        );
        (0..self.modes)
            .map(|_| {
                // Log-uniform wavelength, Kolmogorov-ish amplitude decay
                // with wavenumber: a ∝ k^{-5/6} gives E(k) ∝ k^{-5/3}.
                let lam = (self.min_wavelength.ln()
                    + rng.random_range(0.0..1.0f64) * (self.max_wavelength / self.min_wavelength).ln())
                .exp();
                let k = 2.0 * std::f64::consts::PI / lam;
                let theta = rng.random_range(0.0..std::f64::consts::TAU);
                Mode {
                    kx: k * theta.cos(),
                    ky: k * theta.sin(),
                    amp: k.powf(-5.0 / 6.0),
                    phase: rng.random_range(0.0..std::f64::consts::TAU),
                }
            })
            .collect()
    }

    /// Generates the turbulent velocity field for an `nx × ny` grid.
    ///
    /// The result is deterministic in `seed`, has (approximately) the
    /// requested RMS speed, and is discretely near-divergence-free.
    pub fn generate(&self, nx: usize, ny: usize, seed: u64) -> MacGrid {
        let mut rng = StdRng::seed_from_u64(seed);
        let modes = self.sample_modes(&mut rng);
        let mut vel = MacGrid::new(nx, ny, 1.0);
        // u = ∂ψ/∂y sampled at u-face positions (i, j+0.5).
        for j in 0..ny {
            for i in 0..=nx {
                let (x, y) = (i as f64, j as f64 + 0.5);
                let mut u = 0.0;
                for m in &modes {
                    u += m.amp * m.ky * (m.kx * x + m.ky * y + m.phase).cos();
                }
                vel.u.set(i, j, u);
            }
        }
        // v = −∂ψ/∂x sampled at v-face positions (i+0.5, j).
        for j in 0..=ny {
            for i in 0..nx {
                let (x, y) = (i as f64 + 0.5, j as f64);
                let mut v = 0.0;
                for m in &modes {
                    v -= m.amp * m.kx * (m.kx * x + m.ky * y + m.phase).cos();
                }
                vel.v.set(i, j, v);
            }
        }
        // Normalise to the requested RMS speed.
        let mut sum_sq = 0.0;
        let mut count = 0usize;
        for &u in vel.u.data() {
            sum_sq += u * u;
            count += 1;
        }
        for &v in vel.v.data() {
            sum_sq += v * v;
            count += 1;
        }
        let rms = (sum_sq / count as f64).sqrt();
        if rms > 0.0 {
            let s = self.rms_velocity / rms;
            vel.u.scale(s);
            vel.v.scale(s);
        }
        vel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_grid::CellFlags;

    #[test]
    fn deterministic_in_seed() {
        let spec = TurbulenceSpec::default();
        let a = spec.generate(32, 32, 9);
        let b = spec.generate(32, 32, 9);
        assert_eq!(a, b);
        let c = spec.generate(32, 32, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn rms_speed_matches_target() {
        let spec = TurbulenceSpec {
            rms_velocity: 2.5,
            ..Default::default()
        };
        let vel = spec.generate(48, 48, 3);
        let mut sum_sq = 0.0;
        let mut n = 0usize;
        for &u in vel.u.data() {
            sum_sq += u * u;
            n += 1;
        }
        for &v in vel.v.data() {
            sum_sq += v * v;
            n += 1;
        }
        let rms = (sum_sq / n as f64).sqrt();
        assert!((rms - 2.5).abs() < 1e-9, "rms {rms}");
    }

    #[test]
    fn field_is_nearly_divergence_free() {
        let spec = TurbulenceSpec::default();
        let vel = spec.generate(64, 64, 5);
        let flags = CellFlags::all_fluid(64, 64);
        let div = vel.divergence(&flags);
        // Discrete divergence of an analytic curl field is O(k²·dx²·|u|);
        // with min wavelength 4 cells it stays well under the RMS speed.
        let max_div = div.max_abs();
        assert!(max_div < 0.8, "max divergence {max_div}");
        let mean_abs: f64 =
            div.data().iter().map(|d| d.abs()).sum::<f64>() / div.data().len() as f64;
        assert!(mean_abs < 0.1, "mean |div| {mean_abs}");
    }

    #[test]
    fn different_seeds_decorrelate() {
        let spec = TurbulenceSpec::default();
        let a = spec.generate(32, 32, 1);
        let b = spec.generate(32, 32, 2);
        // Normalised inner product far from 1.
        let dot: f64 = a.u.data().iter().zip(b.u.data()).map(|(x, y)| x * y).sum();
        let na: f64 = a.u.data().iter().map(|x| x * x).sum::<f64>().sqrt();
        let nb: f64 = b.u.data().iter().map(|x| x * x).sum::<f64>().sqrt();
        let corr = (dot / (na * nb)).abs();
        assert!(corr < 0.5, "fields too correlated: {corr}");
    }

    #[test]
    fn contains_multiple_scales() {
        // Energy must not be concentrated in a single frequency: compare
        // coarse-grained and fine field energy.
        let spec = TurbulenceSpec::default();
        let vel = spec.generate(64, 64, 11);
        // Average u over 8x8 blocks: large-scale energy survives.
        let mut coarse_energy = 0.0;
        for bj in 0..8 {
            for bi in 0..8 {
                let mut s = 0.0;
                for j in 0..8 {
                    for i in 0..8 {
                        s += vel.u.at(bi * 8 + i, bj * 8 + j);
                    }
                }
                let mean = s / 64.0;
                coarse_energy += mean * mean;
            }
        }
        assert!(coarse_energy > 1e-4, "no large-scale energy: {coarse_energy}");
    }
}
