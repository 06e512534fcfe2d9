//! The ULP metric of the vector-vs-scalar comparisons.
//!
//! Every `sfn-nn` kernel with a vector body (the conv's `direct_plane`
//! and its weight-gradient kernel) repeats its scalar operation order,
//! so its two paths agree bit for bit. [`ulp_distance`] is the metric
//! the `simd_diff` fuzz oracle states that in.

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

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 3)), 3);
        assert_eq!(ulp_distance(1.0, -1.0), u32::MAX);
        assert_eq!(ulp_distance(f32::NAN, 1.0), u32::MAX);
    }
}
