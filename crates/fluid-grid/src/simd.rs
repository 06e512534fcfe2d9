//! Vectorised f64 slice primitives for the solver and advection hot
//! paths.
//!
//! Every public function dispatches on [`sfn_par::simd::level`] between
//! an always-compiled scalar reference (`*_scalar`) and an AVX2
//! `std::arch` variant on x86_64. The scalar variants are the semantic
//! ground truth: the `simd_diff` fuzz target and the property tests in
//! this module compare the vector paths against them.
//!
//! Rounding contract: the element-wise kernels ([`axpy`], [`xpay`] and
//! the advection row kernel [`Backtrace::sample_row`]) perform
//! *exactly* the scalar operation sequence with plain mul/add (no FMA
//! contraction), so their vector results are bit-identical to the
//! scalar reference. The reductions ([`dot`], [`norm_sq`],
//! [`axpy_norm_sq`]) re-associate the sum across lanes and therefore
//! agree only to rounding (a few ULP on well-scaled data).

use sfn_par::simd::{level, SimdLevel};

// ------------------------------------------------------------- dot

/// Scalar reference: `Σ a[i]·b[i]` in index order.
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        s += x * y;
    }
    s
}

/// `Σ a[i]·b[i]`, vector-dispatched (lane-reassociated sum).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { dot_avx2(a, b) },
        _ => dot_scalar(a, b),
    }
}

/// `Σ a[i]²`, vector-dispatched.
pub fn norm_sq(a: &[f64]) -> f64 {
    dot(a, a)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = a.len();
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0;
    while i + 8 <= n {
        let a0 = _mm256_loadu_pd(a.as_ptr().add(i));
        let b0 = _mm256_loadu_pd(b.as_ptr().add(i));
        let a1 = _mm256_loadu_pd(a.as_ptr().add(i + 4));
        let b1 = _mm256_loadu_pd(b.as_ptr().add(i + 4));
        acc0 = _mm256_fmadd_pd(a0, b0, acc0);
        acc1 = _mm256_fmadd_pd(a1, b1, acc1);
        i += 8;
    }
    let acc = _mm256_add_pd(acc0, acc1);
    let lo = _mm256_castpd256_pd128(acc);
    let hi = _mm256_extractf128_pd::<1>(acc);
    let s2 = _mm_add_pd(lo, hi);
    let s1 = _mm_add_sd(s2, _mm_unpackhi_pd(s2, s2));
    let mut s = _mm_cvtsd_f64(s1);
    while i < n {
        s += a[i] * b[i];
        i += 1;
    }
    s
}

// ------------------------------------------------------------- axpy

/// Scalar reference: `y[i] += alpha·x[i]` (mul then add, no FMA).
pub fn axpy_scalar(y: &mut [f64], x: &[f64], alpha: f64) {
    debug_assert_eq!(y.len(), x.len());
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// `y += alpha·x`, vector-dispatched; bit-identical to the scalar
/// reference (element-wise, no contraction).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy(y: &mut [f64], x: &[f64], alpha: f64) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { axpy_avx2(y, x, alpha) },
        _ => axpy_scalar(y, x, alpha),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(y: &mut [f64], x: &[f64], alpha: f64) {
    use std::arch::x86_64::*;
    let n = y.len();
    let av = _mm256_set1_pd(alpha);
    let mut i = 0;
    while i + 4 <= n {
        let xv = _mm256_loadu_pd(x.as_ptr().add(i));
        let yv = _mm256_loadu_pd(y.as_ptr().add(i));
        // mul + add (not FMA) to match the scalar rounding exactly.
        let r = _mm256_add_pd(yv, _mm256_mul_pd(av, xv));
        _mm256_storeu_pd(y.as_mut_ptr().add(i), r);
        i += 4;
    }
    while i < n {
        y[i] += alpha * x[i];
        i += 1;
    }
}

// ------------------------------------------------------------- xpay

/// Scalar reference: `s[i] = z[i] + beta·s[i]` (the PCG direction
/// update).
pub fn xpay_scalar(s: &mut [f64], z: &[f64], beta: f64) {
    debug_assert_eq!(s.len(), z.len());
    for (sv, &zv) in s.iter_mut().zip(z) {
        *sv = zv + beta * *sv;
    }
}

/// `s = z + beta·s`, vector-dispatched; bit-identical to scalar.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn xpay(s: &mut [f64], z: &[f64], beta: f64) {
    assert_eq!(s.len(), z.len(), "xpay length mismatch");
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { xpay_avx2(s, z, beta) },
        _ => xpay_scalar(s, z, beta),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn xpay_avx2(s: &mut [f64], z: &[f64], beta: f64) {
    use std::arch::x86_64::*;
    let n = s.len();
    let bv = _mm256_set1_pd(beta);
    let mut i = 0;
    while i + 4 <= n {
        let sv = _mm256_loadu_pd(s.as_ptr().add(i));
        let zv = _mm256_loadu_pd(z.as_ptr().add(i));
        let r = _mm256_add_pd(zv, _mm256_mul_pd(bv, sv));
        _mm256_storeu_pd(s.as_mut_ptr().add(i), r);
        i += 4;
    }
    while i < n {
        s[i] = z[i] + beta * s[i];
        i += 1;
    }
}

// ------------------------------------------- fused axpy + norm²

/// Scalar reference for the fused residual update: `r += alpha·a`,
/// returning `Σ r[i]²` of the *updated* residual.
pub fn axpy_norm_sq_scalar(r: &mut [f64], a: &[f64], alpha: f64) -> f64 {
    debug_assert_eq!(r.len(), a.len());
    let mut s = 0.0;
    for (rv, &av) in r.iter_mut().zip(a) {
        *rv += alpha * av;
        s += *rv * *rv;
    }
    s
}

/// Fused `r += alpha·a; return ‖r‖²` — one pass over the residual
/// instead of the axpy-then-norm two-pass the scalar PCG loop did.
/// Updated elements are bit-identical to scalar; the returned sum is
/// lane-reassociated.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy_norm_sq(r: &mut [f64], a: &[f64], alpha: f64) -> f64 {
    assert_eq!(r.len(), a.len(), "axpy_norm_sq length mismatch");
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { axpy_norm_sq_avx2(r, a, alpha) },
        _ => axpy_norm_sq_scalar(r, a, alpha),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn axpy_norm_sq_avx2(r: &mut [f64], a: &[f64], alpha: f64) -> f64 {
    use std::arch::x86_64::*;
    let n = r.len();
    let av = _mm256_set1_pd(alpha);
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        let xv = _mm256_loadu_pd(a.as_ptr().add(i));
        let rv = _mm256_loadu_pd(r.as_ptr().add(i));
        let nr = _mm256_add_pd(rv, _mm256_mul_pd(av, xv));
        _mm256_storeu_pd(r.as_mut_ptr().add(i), nr);
        acc = _mm256_fmadd_pd(nr, nr, acc);
        i += 4;
    }
    let lo = _mm256_castpd256_pd128(acc);
    let hi = _mm256_extractf128_pd::<1>(acc);
    let s2 = _mm_add_pd(lo, hi);
    let s1 = _mm_add_sd(s2, _mm_unpackhi_pd(s2, s2));
    let mut s = _mm_cvtsd_f64(s1);
    while i < n {
        r[i] += alpha * a[i];
        s += r[i] * r[i];
        i += 1;
    }
    s
}

// -------------------------------------------------------- bilinear

/// Scalar reference: clamped bilinear sample of a `w×h` row-major grid
/// at `(x, y)` in index space — the exact operation sequence of
/// `Field2::sample_linear`.
#[inline]
pub fn bilinear_scalar(data: &[f64], w: usize, h: usize, x: f64, y: f64) -> f64 {
    let x = x.clamp(0.0, (w - 1) as f64);
    let y = y.clamp(0.0, (h - 1) as f64);
    let i0 = (x.floor() as usize).min(w - 1);
    let j0 = (y.floor() as usize).min(h - 1);
    let i1 = (i0 + 1).min(w - 1);
    let j1 = (j0 + 1).min(h - 1);
    let fx = x - i0 as f64;
    let fy = y - j0 as f64;
    let v00 = data[j0 * w + i0];
    let v10 = data[j0 * w + i1];
    let v01 = data[j1 * w + i0];
    let v11 = data[j1 * w + i1];
    let a = v00 + (v10 - v00) * fx;
    let b = v01 + (v11 - v01) * fx;
    a + (b - a) * fy
}

/// A `w×h` row-major grid borrowed for sampling; the constructor
/// checks the shape the gathers rely on.
#[derive(Clone, Copy)]
pub struct Grid<'a> {
    data: &'a [f64],
    w: usize,
    h: usize,
}

impl<'a> Grid<'a> {
    /// # Panics
    /// Panics if `data.len() != w*h`, the grid is empty, or it has more
    /// than `i32::MAX` elements (the gathers index with `i32`).
    pub fn new(data: &'a [f64], w: usize, h: usize) -> Self {
        assert_eq!(data.len(), w * h, "grid shape");
        assert!(w > 0 && h > 0, "empty grid");
        assert!(data.len() <= i32::MAX as usize, "grid too large to gather");
        Grid { data, w, h }
    }

    #[inline]
    fn sample(&self, x: f64, y: f64) -> f64 {
        bilinear_scalar(self.data, self.w, self.h, x, y)
    }

    /// Four clamped bilinear samples at lanes `(x, y)`: gathers the 16
    /// corner values and performs the same mul/add lerp sequence as
    /// [`bilinear_scalar`], so results are bit-identical.
    ///
    /// NaN coordinates are the one divergence from scalar `clamp`
    /// (which propagates NaN): the vector clamp maps NaN to index 0.
    /// Callers (advection backtraces over finite fields) never produce
    /// NaN coordinates; the fuzz generator enforces finiteness too.
    ///
    /// # Safety
    /// Needs AVX2.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sample4(
        &self,
        x: std::arch::x86_64::__m256d,
        y: std::arch::x86_64::__m256d,
    ) -> std::arch::x86_64::__m256d {
        use std::arch::x86_64::*;
        let zero = _mm256_setzero_pd();
        let wm1 = _mm256_set1_pd((self.w - 1) as f64);
        let hm1 = _mm256_set1_pd((self.h - 1) as f64);
        let wv = _mm256_set1_pd(self.w as f64);
        // Clamp into the interpolation domain. _mm256_max_pd(NaN, 0)
        // returns the second operand (0), so NaN lands at index 0 — fine
        // per the documented contract.
        let x = _mm256_min_pd(_mm256_max_pd(x, zero), wm1);
        let y = _mm256_min_pd(_mm256_max_pd(y, zero), hm1);
        let i0 = _mm256_min_pd(_mm256_floor_pd(x), wm1);
        let j0 = _mm256_min_pd(_mm256_floor_pd(y), hm1);
        let one = _mm256_set1_pd(1.0);
        let i1 = _mm256_min_pd(_mm256_add_pd(i0, one), wm1);
        let j1 = _mm256_min_pd(_mm256_add_pd(j0, one), hm1);
        let fx = _mm256_sub_pd(x, i0);
        let fy = _mm256_sub_pd(y, j0);
        // Flat indices as doubles (exact for any grid that fits memory),
        // then truncate to i32 for the gathers.
        let base0 = _mm256_mul_pd(j0, wv);
        let base1 = _mm256_mul_pd(j1, wv);
        let idx00 = _mm256_cvttpd_epi32(_mm256_add_pd(base0, i0));
        let idx10 = _mm256_cvttpd_epi32(_mm256_add_pd(base0, i1));
        let idx01 = _mm256_cvttpd_epi32(_mm256_add_pd(base1, i0));
        let idx11 = _mm256_cvttpd_epi32(_mm256_add_pd(base1, i1));
        let p = self.data.as_ptr();
        // SAFETY: every index is `j*w + i` with `i ≤ w-1`, `j ≤ h-1`, so
        // it is below `w*h == data.len()` (checked by `Grid::new`).
        let (v00, v10, v01, v11) = unsafe {
            (
                _mm256_i32gather_pd::<8>(p, idx00),
                _mm256_i32gather_pd::<8>(p, idx10),
                _mm256_i32gather_pd::<8>(p, idx01),
                _mm256_i32gather_pd::<8>(p, idx11),
            )
        };
        // Same lerp sequence as the scalar reference (mul/add, no FMA).
        let a = _mm256_add_pd(v00, _mm256_mul_pd(_mm256_sub_pd(v10, v00), fx));
        let b = _mm256_add_pd(v01, _mm256_mul_pd(_mm256_sub_pd(v11, v01), fx));
        _mm256_add_pd(a, _mm256_mul_pd(_mm256_sub_pd(b, a), fy))
    }
}

// ------------------------------------------------------- backtrace

/// The semi-Lagrangian kernel shared by every bilinear advection: `src`
/// sampled at the RK2 (midpoint) backtrace of its own sample points
/// through the staggered velocity `(u, v)`.
///
/// Sample `(i, j)` of `src` sits at position `(i + ox, j + oy)` in grid
/// units, `offset = (ox, oy)` — `(0.5, 0.5)` for cell centres,
/// `(0, 0.5)` for u faces, `(0.5, 0)` for v faces — and the same
/// offsets map a position back into `src`'s index space. `u` lives at
/// `(x, y - 0.5)` and `v` at `(x - 0.5, y)` in their index spaces;
/// `scale` is `dt / dx`, the displacement in grid units per unit of
/// (physical) velocity.
pub struct Backtrace<'a> {
    /// x-velocity faces, `(nx+1)×ny`.
    pub u: Grid<'a>,
    /// y-velocity faces, `nx×(ny+1)`.
    pub v: Grid<'a>,
    /// The field being advected (may be `u` or `v` itself).
    pub src: Grid<'a>,
    /// Position of `src`'s sample `(0, 0)` in grid units.
    pub offset: (f64, f64),
    /// `dt / dx`.
    pub scale: f64,
}

impl Backtrace<'_> {
    /// Fills `out` (a prefix of row `j` of a `src`-shaped field). The
    /// AVX2 path traces 4 points per step through the gathered
    /// `Grid::sample4` and repeats the scalar expression order exactly,
    /// so both paths agree bit-for-bit (finite coordinates, see there);
    /// the scalar reference also finishes the row tail.
    pub fn sample_row(&self, j: usize, out: &mut [f64]) {
        let done = match level() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: level() reports AVX2 only when the CPU has it.
            SimdLevel::Avx2 => unsafe { self.sample_row_avx2(j, out) },
            _ => 0,
        };
        let (ox, oy) = self.offset;
        let (s, hs) = (self.scale, 0.5 * self.scale);
        let y = j as f64 + oy;
        for (i, o) in out.iter_mut().enumerate().skip(done) {
            let x = i as f64 + ox;
            let (u1, v1) = (self.u.sample(x, y - 0.5), self.v.sample(x - 0.5, y));
            let (mx, my) = (x - hs * u1, y - hs * v1);
            let (u2, v2) = (self.u.sample(mx, my - 0.5), self.v.sample(mx - 0.5, my));
            *o = self.src.sample(x - s * u2 - ox, y - s * v2 - oy);
        }
    }

    /// Whole groups of 4 points of row `j`; returns how many points
    /// were written.
    ///
    /// # Safety
    /// Needs AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn sample_row_avx2(&self, j: usize, out: &mut [f64]) -> usize {
        use std::arch::x86_64::*;
        let (ox, oy) = (_mm256_set1_pd(self.offset.0), _mm256_set1_pd(self.offset.1));
        let (s, hs) = (_mm256_set1_pd(self.scale), _mm256_set1_pd(0.5 * self.scale));
        let half = _mm256_set1_pd(0.5);
        let y = _mm256_add_pd(_mm256_set1_pd(j as f64), oy);
        let ym = _mm256_sub_pd(y, half);
        // Lane l holds i + l: small integers, exact in f64.
        let mut col = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
        let mut done = 0;
        for quad in out.chunks_exact_mut(4) {
            let x = _mm256_add_pd(col, ox);
            // SAFETY: AVX2 is enabled for this function; `quad` holds
            // exactly 4 doubles.
            unsafe {
                let u1 = self.u.sample4(x, ym);
                let v1 = self.v.sample4(_mm256_sub_pd(x, half), y);
                let mx = _mm256_sub_pd(x, _mm256_mul_pd(hs, u1));
                let my = _mm256_sub_pd(y, _mm256_mul_pd(hs, v1));
                let u2 = self.u.sample4(mx, _mm256_sub_pd(my, half));
                let v2 = self.v.sample4(_mm256_sub_pd(mx, half), my);
                let bx = _mm256_sub_pd(_mm256_sub_pd(x, _mm256_mul_pd(s, u2)), ox);
                let by = _mm256_sub_pd(_mm256_sub_pd(y, _mm256_mul_pd(s, v2)), oy);
                _mm256_storeu_pd(quad.as_mut_ptr(), self.src.sample4(bx, by));
            }
            col = _mm256_add_pd(col, _mm256_set1_pd(4.0));
            done += 4;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_par::simd::{with_level, SimdLevel};

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37) % 101) as f64 / 13.0 - 3.5).collect()
    }

    #[test]
    fn dot_matches_scalar_to_rounding() {
        for n in [0, 1, 3, 7, 8, 31, 257] {
            let a = ramp(n);
            let b: Vec<f64> = a.iter().map(|v| v * 0.7 + 1.0).collect();
            let want = dot_scalar(&a, &b);
            let got = dot(&a, &b);
            assert!(
                (want - got).abs() <= 1e-12 * want.abs().max(1.0),
                "n={n}: {want} vs {got}"
            );
        }
    }

    #[test]
    fn axpy_and_xpay_bit_identical_to_scalar() {
        for n in [1, 4, 5, 64, 129] {
            let x = ramp(n);
            let mut y1 = ramp(n);
            y1.reverse();
            let mut y2 = y1.clone();
            axpy_scalar(&mut y1, &x, 0.37);
            axpy(&mut y2, &x, 0.37);
            assert_eq!(y1, y2, "axpy n={n}");
            let mut s1 = y1.clone();
            let mut s2 = y1.clone();
            xpay_scalar(&mut s1, &x, -1.25);
            xpay(&mut s2, &x, -1.25);
            assert_eq!(s1, s2, "xpay n={n}");
        }
    }

    #[test]
    fn fused_axpy_norm_matches_two_pass() {
        for n in [1, 4, 6, 100] {
            let a = ramp(n);
            let mut r1 = ramp(n);
            r1.rotate_left(n / 2);
            let mut r2 = r1.clone();
            let s_fused = axpy_norm_sq(&mut r1, &a, -0.61);
            axpy_scalar(&mut r2, &a, -0.61);
            assert_eq!(r1, r2, "residual update n={n}");
            let s_two = dot_scalar(&r2, &r2);
            assert!((s_fused - s_two).abs() <= 1e-12 * s_two.max(1.0));
        }
    }

    /// Four samples through the dispatched body of
    /// [`Backtrace::sample_row`]'s gather.
    fn bilinear4(data: &[f64], w: usize, h: usize, xs: &[f64; 4], ys: &[f64; 4]) -> [f64; 4] {
        let grid = Grid::new(data, w, h);
        match level() {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => {
                use std::arch::x86_64::*;
                let mut out = [0.0f64; 4];
                // SAFETY: level() reports AVX2 only when the CPU has
                // it; the arrays hold 4 lanes.
                unsafe {
                    let r = grid.sample4(_mm256_loadu_pd(xs.as_ptr()), _mm256_loadu_pd(ys.as_ptr()));
                    _mm256_storeu_pd(out.as_mut_ptr(), r);
                }
                out
            }
            _ => std::array::from_fn(|k| grid.sample(xs[k], ys[k])),
        }
    }

    #[test]
    fn bilinear4_bit_identical_to_scalar_reference() {
        let (w, h) = (9, 7);
        let data = ramp(w * h);
        let cases: Vec<(f64, f64)> = vec![
            (0.0, 0.0),
            (7.9999, 5.9999),
            (-3.0, 2.5),     // clamps left
            (100.0, 100.0),  // clamps bottom-right
            (3.25, 4.75),
            (8.0, 6.0),      // exactly on the last node
            (0.5, 0.0),
            (2.0, 3.0),
        ];
        for quad in cases.chunks(4) {
            let mut xs = [0.0; 4];
            let mut ys = [0.0; 4];
            for (k, &(x, y)) in quad.iter().enumerate() {
                xs[k] = x;
                ys[k] = y;
            }
            let got = bilinear4(&data, w, h, &xs, &ys);
            for k in 0..quad.len() {
                let want = bilinear_scalar(&data, w, h, xs[k], ys[k]);
                assert!(
                    want.to_bits() == got[k].to_bits(),
                    "({}, {}): {want} vs {}",
                    xs[k],
                    ys[k],
                    got[k]
                );
            }
        }
    }

    #[test]
    fn forced_scalar_path_agrees_with_dispatch() {
        let a = ramp(50);
        let b = ramp(50);
        let scalar = with_level(SimdLevel::Scalar, || dot(&a, &b));
        assert_eq!(scalar, dot_scalar(&a, &b));
    }
}
