//! Vectorised f32 row primitives.
//!
//! Same contract as `sfn_grid::simd`: an always-compiled scalar
//! reference defines the semantics, `std::arch` variants dispatch on
//! [`sfn_par::simd::level`]. The row reduction ([`row_dot`])
//! reassociates across lanes, so it is compared with a tolerance.
//! [`ulp_distance`] is the metric of the `simd_diff` fuzz oracle's
//! vector-vs-scalar comparisons. The conv's element-wise inner loop
//! has its own AVX2 body in `direct_plane`.

use sfn_par::simd::{level, SimdLevel};

/// Scalar reference: dot product of two rows (FMA accumulation to
/// match the vector paths' per-step rounding).
pub fn row_dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        s = x.mul_add(y, s);
    }
    s
}

/// Row dot product, vector-dispatched (lane-reassociated sum).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn row_dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "row_dot length mismatch");
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { row_dot_avx2(a, b) },
        _ => row_dot_scalar(a, b),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn row_dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    while i + 8 <= n {
        let av = _mm256_loadu_ps(a.as_ptr().add(i));
        let bv = _mm256_loadu_ps(b.as_ptr().add(i));
        acc = _mm256_fmadd_ps(av, bv, acc);
        i += 8;
    }
    let lo = _mm256_castps256_ps128(acc);
    let hi = _mm256_extractf128_ps::<1>(acc);
    let s4 = _mm_add_ps(lo, hi);
    let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
    let s1 = _mm_add_ss(s2, _mm_shuffle_ps::<1>(s2, s2));
    let mut s = _mm_cvtss_f32(s1);
    while i < n {
        s = a[i].mul_add(b[i], s);
        i += 1;
    }
    s
}

/// Distance in units-in-the-last-place between two finite f32 values
/// (`u32::MAX` across signs unless both are zero). The oracle metric
/// for the vector-vs-scalar differential tests.
pub fn ulp_distance(a: f32, b: f32) -> u32 {
    if a == b {
        return 0; // covers +0 vs -0
    }
    if a.is_nan() || b.is_nan() {
        return u32::MAX;
    }
    if a.is_sign_positive() != b.is_sign_positive() {
        return u32::MAX;
    }
    let (ia, ib) = (a.to_bits(), b.to_bits());
    ia.abs_diff(ib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_par::simd::with_level;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 29) % 97) as f32 / 7.0 - 6.0).collect()
    }

    #[test]
    fn row_dot_close_to_scalar() {
        for n in [1, 5, 8, 64, 301] {
            let a = ramp(n);
            let b: Vec<f32> = a.iter().map(|v| v * 0.3 + 0.5).collect();
            let want = row_dot_scalar(&a, &b);
            let got = row_dot(&a, &b);
            assert!(
                (want - got).abs() <= 1e-4 * want.abs().max(1.0),
                "n={n}: {want} vs {got}"
            );
        }
    }

    #[test]
    fn scalar_dispatch_is_exact() {
        let a = ramp(40);
        let b = ramp(40);
        let forced = with_level(SimdLevel::Scalar, || row_dot(&a, &b));
        assert_eq!(forced.to_bits(), row_dot_scalar(&a, &b).to_bits());
    }

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 3)), 3);
        assert_eq!(ulp_distance(1.0, -1.0), u32::MAX);
        assert_eq!(ulp_distance(f32::NAN, 1.0), u32::MAX);
    }
}
