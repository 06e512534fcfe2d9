//! Dependency-free seeded randomness for the whole workspace.
//!
//! This crate replaces the external `rand` dependency so the workspace
//! builds with `--offline` and no registry. The generator is
//! xoshiro256++ seeded through SplitMix64 (the reference seeding
//! procedure), which gives a long period (2²⁵⁶ − 1), cheap jumps from
//! one `u64` seed, and — most importantly here — **bit-for-bit
//! deterministic streams from a seed**, the contract the Algorithm 2
//! replay machinery and the `sfn-trace` decision audit rely on.
//!
//! The module layout deliberately mirrors the subset of the `rand` API
//! the workspace uses, so call sites swap `use rand::…` for
//! `use sfn_rng::…` and change nothing else:
//!
//! * [`rngs::StdRng`] — the one generator type;
//! * [`SeedableRng::seed_from_u64`] — seeding;
//! * [`RngExt::random_range`] — uniform sampling from integer and
//!   float ranges;
//! * [`seq::SliceRandom::shuffle`] — Fisher–Yates shuffling;
//! * [`RngExt::normal`] — zero-mean Gaussian draws (Box–Muller).
//!
//! The [`prop`] module is a seeded mini property-test harness that
//! stands in for `proptest` in this workspace's tests.

use std::ops::{Range, RangeInclusive};

pub mod prop;

/// Re-export module mirroring `rand::rngs`.
pub mod rngs {
    pub use crate::StdRng;
}

/// Re-export module mirroring `rand::seq`.
pub mod seq {
    pub use crate::SliceRandom;
}

/// The SplitMix64 state increment (the 64-bit golden ratio).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 as a stateless mixer: the output of a SplitMix64
/// generator whose state is `z`. Seeds the xoshiro state here and
/// hashes fault-decision coordinates in `sfn-faults`.
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a over `bytes`: the content address of fuzz corpus
/// files, the artifact cache keys and the bench run log's names. Any
/// change breaks every file written with it.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// xoshiro256++ — the workspace's standard generator.
///
/// Named `StdRng` so call sites keep the `rand` spelling. Cloning
/// clones the stream position; two clones produce identical sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

/// Seeding trait mirroring `rand::SeedableRng` (the `seed_from_u64`
/// subset the workspace uses).
pub trait SeedableRng: Sized {
    /// Builds a generator whose entire stream is a function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut st = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix64(st);
            st = st.wrapping_add(GOLDEN_GAMMA);
        }
        // SplitMix64 never yields four zero words from any seed, but
        // guard the all-zero fixed point anyway.
        if s == [0; 4] {
            s[0] = GOLDEN_GAMMA;
        }
        StdRng { s }
    }
}

impl StdRng {
    /// The core xoshiro256++ step.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.s;
        let result = s0
            .wrapping_add(s3)
            .rotate_left(23)
            .wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.s = s;
        result
    }

    /// Uniform draw in `[0, 1)` with 53 mantissa bits.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via 128-bit multiply-shift
    /// (Lemire's unbiased-enough fast path; the residual bias is
    /// < 2⁻⁶⁴ per draw, far below anything these simulations resolve).
    #[inline]
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Uniform sampling from a range, mirroring `rand`'s
/// `Rng::random_range` argument convention.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_from(self, rng: &mut StdRng) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range in random_range");
                let span = (self.end - self.start) as u64;
                self.start + rng.bounded_u64(span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from(self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in random_range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return lo + rng.next_u64() as $t;
                }
                lo + rng.bounded_u64(span + 1) as $t
            }
        }
    )*};
}

int_sample_range!(u32, u64, usize, i32, i64);

macro_rules! float_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from(self, rng: &mut StdRng) -> $t {
                assert!(
                    self.start < self.end,
                    "empty float range in random_range"
                );
                let u = rng.unit_f64() as $t;
                let v = self.start + u * (self.end - self.start);
                // Floating rounding can land exactly on `end`; fold it
                // back so the half-open contract holds.
                if v >= self.end {
                    self.start.max(<$t>::from_bits(self.end.to_bits() - 1))
                } else {
                    v
                }
            }
        }
    )*};
}

float_sample_range!(f32, f64);

/// Sampling extension methods, mirroring the `rand::RngExt` surface
/// the workspace's init/train code uses.
pub trait RngExt {
    /// Uniform sample from an integer or float range.
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;

    /// Uniform draw in `[0, 1)`.
    fn random_unit(&mut self) -> f64;

    /// Zero-mean Gaussian with standard deviation `sigma` (Box–Muller).
    fn normal(&mut self, sigma: f64) -> f64;
}

impl RngExt for StdRng {
    #[inline]
    fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    #[inline]
    fn random_unit(&mut self) -> f64 {
        self.unit_f64()
    }

    fn normal(&mut self, sigma: f64) -> f64 {
        let u1: f64 = self.random_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.random_range(0.0..1.0);
        sigma * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Slice shuffling, mirroring `rand::seq::SliceRandom`.
pub trait SliceRandom {
    /// In-place Fisher–Yates shuffle.
    fn shuffle(&mut self, rng: &mut StdRng);
}

impl<T> SliceRandom for [T] {
    fn shuffle(&mut self, rng: &mut StdRng) {
        for i in (1..self.len()).rev() {
            let j = rng.bounded_u64(i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    // Golden values pin the exact stream. If these ever change, every
    // seeded weight init, problem generator and Algorithm 2 replay in
    // the workspace changes with them — treat that as a format break.
    #[test]
    fn golden_stream_seed_zero() {
        let mut r = StdRng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                5987356902031041503,
                7051070477665621255,
                6633766593972829180,
                211316841551650330
            ]
        );
    }

    #[test]
    fn golden_stream_seed_42() {
        let mut r = StdRng::seed_from_u64(42);
        let first: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                15021278609987233951,
                5881210131331364753,
                18149643915985481100
            ]
        );
    }

    // FNV-1a reference vectors (the published 64-bit test values): the
    // model and checkpoint checksums depend on these exact outputs.
    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn unit_f64_is_in_range_and_well_spread() {
        let mut r = StdRng::seed_from_u64(7);
        let mut mean = 0.0;
        for _ in 0..10_000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
            mean += v;
        }
        mean /= 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn integer_ranges_cover_all_values() {
        let mut r = StdRng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.random_range(0..4usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
        for _ in 0..200 {
            let v = r.random_range(4..=6usize);
            assert!((4..=6).contains(&v));
        }
        let v = r.random_range(5..6u32);
        assert_eq!(v, 5);
    }

    #[test]
    fn float_ranges_respect_bounds() {
        let mut r = StdRng::seed_from_u64(2);
        for _ in 0..1_000 {
            let v = r.random_range(-2.5..7.5f64);
            assert!((-2.5..7.5).contains(&v), "{v}");
            let w: f32 = r.random_range(0.0..1.0f32);
            assert!((0.0..1.0).contains(&w), "{w}");
        }
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut r = StdRng::seed_from_u64(3);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "sd {}", var.sqrt());
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_stable() {
        let mut a: Vec<usize> = (0..50).collect();
        let mut b: Vec<usize> = (0..50).collect();
        a.shuffle(&mut StdRng::seed_from_u64(9));
        b.shuffle(&mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, sorted, "50 elements should not shuffle to identity");
    }
}
