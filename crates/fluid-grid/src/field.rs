//! Dense 2-D field storage with bilinear sampling.
//!
//! One structure serves cell-centred scalars (density, pressure,
//! divergence) and the staggered velocity components (which simply have
//! different dimensions and sampling offsets).

/// A dense row-major `w × h` array of `f64`.
///
/// Index `(i, j)` addresses column `i ∈ [0, w)` and row `j ∈ [0, h)`;
/// element `(i, j)` lives at `data[j * w + i]`. Positions handed to the
/// samplers are in *grid units* — the caller applies any staggering
/// offset before sampling (see [`crate::mac::MacGrid`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Field2 {
    w: usize,
    h: usize,
    data: Vec<f64>,
}

impl Field2 {
    /// Creates a zero-filled field of size `w × h`.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(w: usize, h: usize) -> Self {
        assert!(w > 0 && h > 0, "Field2 dimensions must be positive");
        Self {
            w,
            h,
            data: vec![0.0; w * h],
        }
    }

    /// Creates a field whose element `(i, j)` is `f(i, j)`.
    pub fn from_fn(w: usize, h: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut out = Self::new(w, h);
        for j in 0..h {
            for i in 0..w {
                out.data[j * w + i] = f(i, j);
            }
        }
        out
    }

    /// Creates a field from existing row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != w * h`.
    pub fn from_vec(w: usize, h: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), w * h, "data length mismatch");
        assert!(w > 0 && h > 0, "Field2 dimensions must be positive");
        Self { w, h, data }
    }

    /// Width (number of columns).
    #[inline]
    pub fn w(&self) -> usize {
        self.w
    }

    /// Height (number of rows).
    #[inline]
    pub fn h(&self) -> usize {
        self.h
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the field holds no elements (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat index of `(i, j)`.
    #[inline]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.w && j < self.h, "({i},{j}) out of {}x{}", self.w, self.h);
        j * self.w + i
    }

    /// Element access.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[self.idx(i, j)]
    }

    /// Sets element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let k = self.idx(i, j);
        self.data[k] = v;
    }

    /// Element access with clamped (replicated-edge) coordinates.
    #[inline]
    pub fn at_clamped(&self, i: isize, j: isize) -> f64 {
        let ci = i.clamp(0, self.w as isize - 1) as usize;
        let cj = j.clamp(0, self.h as isize - 1) as usize;
        self.at(ci, cj)
    }

    /// Raw data slice (row-major).
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data slice (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Fills the field with a constant.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// `self += scale * other`, element-wise.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn add_scaled(&mut self, other: &Field2, scale: f64) {
        assert_eq!((self.w, self.h), (other.w, other.h), "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Element-wise multiply by a scalar.
    pub fn scale(&mut self, s: f64) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Maximum absolute value (0 for all-zero fields).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean absolute difference against another field — the quality-loss
    /// kernel of Eq. 3: `1/(N·M) Σ |ρ*_ij − ρ_ij|`.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn mean_abs_diff(&self, other: &Field2) -> f64 {
        assert_eq!((self.w, self.h), (other.w, other.h), "shape mismatch");
        let s: f64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .sum();
        s / self.data.len() as f64
    }

    /// Bilinear sample at position `(x, y)` in index space, i.e. the
    /// value stored at `(i, j)` is located at position `(i, j)`.
    /// Coordinates are clamped to the valid interpolation domain.
    pub fn sample_linear(&self, x: f64, y: f64) -> f64 {
        let x = x.clamp(0.0, (self.w - 1) as f64);
        let y = y.clamp(0.0, (self.h - 1) as f64);
        let i0 = (x.floor() as usize).min(self.w - 1);
        let j0 = (y.floor() as usize).min(self.h - 1);
        let i1 = (i0 + 1).min(self.w - 1);
        let j1 = (j0 + 1).min(self.h - 1);
        let fx = x - i0 as f64;
        let fy = y - j0 as f64;
        let v00 = self.at(i0, j0);
        let v10 = self.at(i1, j0);
        let v01 = self.at(i0, j1);
        let v11 = self.at(i1, j1);
        let a = v00 + (v10 - v00) * fx;
        let b = v01 + (v11 - v01) * fx;
        a + (b - a) * fy
    }

    /// Monotone Catmull-Rom (cubic) sample at `(x, y)` in index space.
    ///
    /// Third-order accurate where smooth; the result is clamped to the
    /// local 4×4 stencil's range, so the sampler — like
    /// [`Field2::sample_linear`] — cannot overshoot (mantaflow's
    /// clamped cubic advection mode does the same).
    pub fn sample_cubic(&self, x: f64, y: f64) -> f64 {
        let x = x.clamp(0.0, (self.w - 1) as f64);
        let y = y.clamp(0.0, (self.h - 1) as f64);
        let i0 = (x.floor() as isize).min(self.w as isize - 1);
        let j0 = (y.floor() as isize).min(self.h as isize - 1);
        let fx = x - i0 as f64;
        let fy = y - j0 as f64;

        #[inline]
        fn catmull_rom(p0: f64, p1: f64, p2: f64, p3: f64, t: f64) -> f64 {
            let a = -0.5 * p0 + 1.5 * p1 - 1.5 * p2 + 0.5 * p3;
            let b = p0 - 2.5 * p1 + 2.0 * p2 - 0.5 * p3;
            let c = -0.5 * p0 + 0.5 * p2;
            ((a * t + b) * t + c) * t + p1
        }

        let mut rows = [0.0; 4];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (r, row) in rows.iter_mut().enumerate() {
            let j = j0 - 1 + r as isize;
            let p: [f64; 4] = std::array::from_fn(|k| self.at_clamped(i0 - 1 + k as isize, j));
            // Track the inner 2x2 stencil for the monotonicity clamp.
            if (1..=2).contains(&(j - j0 + 1)) {
                lo = lo.min(p[1]).min(p[2]);
                hi = hi.max(p[1]).max(p[2]);
            }
            *row = catmull_rom(p[0], p[1], p[2], p[3], fx);
        }
        let v = catmull_rom(rows[0], rows[1], rows[2], rows[3], fy);
        v.clamp(lo, hi)
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Dot product with another field of identical shape.
    ///
    /// # Panics
    /// Panics if dimensions differ.
    pub fn dot(&self, other: &Field2) -> f64 {
        assert_eq!((self.w, self.h), (other.w, other.h), "shape mismatch");
        self.data.iter().zip(&other.data).map(|(&a, &b)| a * b).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_round_trip() {
        let mut f = Field2::new(4, 3);
        f.set(2, 1, 7.5);
        assert_eq!(f.at(2, 1), 7.5);
        assert_eq!(f.data()[4 + 2], 7.5);
    }

    #[test]
    fn from_fn_layout() {
        let f = Field2::from_fn(3, 2, |i, j| (10 * j + i) as f64);
        assert_eq!(f.at(0, 0), 0.0);
        assert_eq!(f.at(2, 0), 2.0);
        assert_eq!(f.at(0, 1), 10.0);
        assert_eq!(f.at(2, 1), 12.0);
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn from_vec_checks_length() {
        let _ = Field2::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn clamped_access() {
        let f = Field2::from_fn(2, 2, |i, j| (i + 2 * j) as f64);
        assert_eq!(f.at_clamped(-5, 0), f.at(0, 0));
        assert_eq!(f.at_clamped(9, 9), f.at(1, 1));
    }

    #[test]
    fn bilinear_reproduces_bilinear_function() {
        // f(x,y) = 2x + 3y + 1 is reproduced exactly by bilinear interp.
        let f = Field2::from_fn(5, 5, |i, j| 2.0 * i as f64 + 3.0 * j as f64 + 1.0);
        for &(x, y) in &[(0.25, 0.75), (1.5, 2.5), (3.9, 0.1)] {
            let want = 2.0 * x + 3.0 * y + 1.0;
            assert!((f.sample_linear(x, y) - want).abs() < 1e-12);
        }
    }

    #[test]
    fn bilinear_clamps_outside_domain() {
        let f = Field2::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(f.sample_linear(-4.0, -4.0), f.at(0, 0));
        assert_eq!(f.sample_linear(99.0, 99.0), f.at(2, 2));
    }

    #[test]
    fn sample_at_nodes_is_exact() {
        let f = Field2::from_fn(4, 4, |i, j| ((i * 7 + j * 13) % 5) as f64);
        for j in 0..4 {
            for i in 0..4 {
                assert_eq!(f.sample_linear(i as f64, j as f64), f.at(i, j));
            }
        }
    }

    #[test]
    fn mean_abs_diff_matches_eq3() {
        let a = Field2::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Field2::new(2, 2);
        // |0|+|1|+|1|+|2| over 4 cells = 1.0
        assert!((a.mean_abs_diff(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn add_scaled_and_dot() {
        let mut a = Field2::from_fn(2, 2, |i, _| i as f64);
        let b = Field2::from_fn(2, 2, |_, j| j as f64);
        a.add_scaled(&b, 2.0);
        assert_eq!(a.at(1, 1), 3.0);
        let d = a.dot(&b);
        // a = [[0,1],[2,3]], b = [[0,0],[1,1]] -> dot = 2 + 3 = 5
        assert_eq!(d, 5.0);
    }

    #[test]
    fn cubic_reproduces_cubic_polynomials_in_1d() {
        // Catmull-Rom is exact for quadratics along a row.
        let f = Field2::from_fn(8, 3, |i, _| {
            let x = i as f64;
            0.5 * x * x - 2.0 * x + 1.0
        });
        for &x in &[1.25, 2.5, 4.75, 5.9] {
            let want = 0.5 * x * x - 2.0 * x + 1.0;
            let got = f.sample_cubic(x, 1.0);
            assert!((got - want).abs() < 1e-9, "x={x}: {got} vs {want}");
        }
    }

    #[test]
    fn cubic_at_nodes_is_exact() {
        let f = Field2::from_fn(6, 6, |i, j| ((i * 7 + j * 13) % 5) as f64);
        for j in 1..5 {
            for i in 1..5 {
                assert!((f.sample_cubic(i as f64, j as f64) - f.at(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cubic_clamped_to_local_stencil() {
        // A step function: cubic interpolation would overshoot without
        // the clamp.
        let f = Field2::from_fn(8, 8, |i, _| if i < 4 { 0.0 } else { 1.0 });
        for &x in &[2.5, 3.25, 3.5, 3.75, 4.5] {
            let v = f.sample_cubic(x, 4.0);
            assert!((0.0..=1.0).contains(&v), "overshoot at {x}: {v}");
        }
    }

    #[test]
    fn cubic_sharper_than_linear_on_smooth_bump() {
        let f = Field2::from_fn(16, 16, |i, j| {
            let dx = i as f64 - 8.0;
            let dy = j as f64 - 8.0;
            (-(dx * dx + dy * dy) / 6.0).exp()
        });
        // At an off-grid point near the peak, cubic should be closer to
        // the true Gaussian than linear.
        let (x, y) = (8.5, 8.5);
        let truth = (-(0.5f64 * 0.5 + 0.5 * 0.5) / 6.0).exp();
        let ec = (f.sample_cubic(x, y) - truth).abs();
        let el = (f.sample_linear(x, y) - truth).abs();
        assert!(ec < el, "cubic err {ec} vs linear err {el}");
    }

    #[test]
    fn finite_detection() {
        let mut f = Field2::new(2, 2);
        assert!(f.all_finite());
        f.set(0, 1, f64::NAN);
        assert!(!f.all_finite());
    }
}
