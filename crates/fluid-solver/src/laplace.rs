//! The discrete pressure-Poisson operator (matrix-free 5-point stencil).
//!
//! For a fluid cell `(i, j)` the operator is
//!
//! ```text
//! (A p)_ij = [ deg·p_ij − Σ_{fluid n} p_n ] / dx²
//! ```
//!
//! where `deg` counts non-solid neighbours. Solid neighbours drop out
//! (homogeneous Neumann: ∂p/∂n = 0), empty neighbours contribute to the
//! diagonal but not the off-diagonal (Dirichlet: ghost pressure 0).
//! `A` is symmetric positive (semi-)definite; it is strictly definite
//! whenever at least one fluid cell touches an empty cell, and positive
//! semi-definite with the constant null-space on fully closed domains —
//! CG handles the latter as long as the right-hand side is compatible
//! (which discrete divergence of a wall-bounded field always is).

use sfn_grid::{CellFlags, CellType, Field2};

/// The pressure-Poisson problem geometry: cell flags plus grid spacing.
#[derive(Debug, Clone, Copy)]
pub struct PoissonProblem<'a> {
    /// Cell classification (fluid/solid/empty).
    pub flags: &'a CellFlags,
    /// Grid spacing.
    pub dx: f64,
}

impl<'a> PoissonProblem<'a> {
    /// Creates a problem over the given flags with spacing `dx`.
    pub fn new(flags: &'a CellFlags, dx: f64) -> Self {
        assert!(dx > 0.0 && dx.is_finite(), "dx must be positive");
        Self { flags, dx }
    }

    /// Grid width in cells.
    #[inline]
    pub fn nx(&self) -> usize {
        self.flags.nx()
    }

    /// Grid height in cells.
    #[inline]
    pub fn ny(&self) -> usize {
        self.flags.ny()
    }

    /// Diagonal coefficient of the (unscaled by 1/dx²) matrix row for
    /// cell `(i, j)`: the number of non-solid neighbours.
    pub fn degree(&self, i: usize, j: usize) -> f64 {
        let mut deg = 0.0;
        for (di, dj) in [(1isize, 0isize), (-1, 0), (0, 1), (0, -1)] {
            if self.flags.at_or_solid(i as isize + di, j as isize + dj) != CellType::Solid {
                deg += 1.0;
            }
        }
        deg
    }

    /// Applies the operator: `out = A x`. Non-fluid cells of `out` are
    /// set to zero, and non-fluid entries of `x` are treated as zero.
    pub fn apply(&self, x: &Field2, out: &mut Field2) {
        let (nx, ny) = (self.nx(), self.ny());
        assert_eq!((x.w(), x.h()), (nx, ny), "x shape");
        assert_eq!((out.w(), out.h()), (nx, ny), "out shape");
        let inv_dx2 = 1.0 / (self.dx * self.dx);
        for j in 0..ny {
            for i in 0..nx {
                if !self.flags.is_fluid(i, j) {
                    out.set(i, j, 0.0);
                    continue;
                }
                let mut acc = self.degree(i, j) * x.at(i, j);
                for (di, dj) in [(1isize, 0isize), (-1, 0), (0, 1), (0, -1)] {
                    let (ni, nj) = (i as isize + di, j as isize + dj);
                    if self.flags.at_or_solid(ni, nj) == CellType::Fluid {
                        acc -= x.at(ni as usize, nj as usize);
                    }
                    // Empty neighbour: ghost pressure 0 contributes
                    // nothing off-diagonal; solid neighbour: dropped.
                }
                out.set(i, j, acc * inv_dx2);
            }
        }
    }

    /// Residual `r = b − A x` restricted to fluid cells.
    pub fn residual(&self, x: &Field2, b: &Field2, r: &mut Field2) {
        self.apply(x, r);
        for j in 0..self.ny() {
            for i in 0..self.nx() {
                if self.flags.is_fluid(i, j) {
                    let v = b.at(i, j) - r.at(i, j);
                    r.set(i, j, v);
                } else {
                    r.set(i, j, 0.0);
                }
            }
        }
    }

    /// ℓ₂ norm over fluid cells.
    pub fn norm(&self, x: &Field2) -> f64 {
        let mut s = 0.0;
        for j in 0..self.ny() {
            for i in 0..self.nx() {
                if self.flags.is_fluid(i, j) {
                    let v = x.at(i, j);
                    s += v * v;
                }
            }
        }
        s.sqrt()
    }

    /// Inner product over fluid cells.
    pub fn dot(&self, a: &Field2, b: &Field2) -> f64 {
        let mut s = 0.0;
        for j in 0..self.ny() {
            for i in 0..self.nx() {
                if self.flags.is_fluid(i, j) {
                    s += a.at(i, j) * b.at(i, j);
                }
            }
        }
        s
    }

    /// Number of fluid cells (system size).
    pub fn unknowns(&self) -> usize {
        self.flags.fluid_count()
    }
}

/// Branch-free form of the pressure stencil: per-cell masked
/// coefficient arrays.
///
/// [`PoissonProblem::apply`] re-derives the cell classification
/// (degree, fluid-neighbour tests) on every application. The plan
/// precomputes one diagonal and four off-diagonal coefficient arrays —
/// zero wherever the stencil has no coupling — so `apply` becomes a
/// straight 5-term multiply-add over every cell with no flag queries
/// and no halo branches in the interior rows (first and last grid rows
/// run the guarded scalar form to keep neighbour indices in bounds).
///
/// The AVX2 path performs the same mul/add sequence 4 cells at a time,
/// so vector and scalar applications are bit-identical. Note the
/// coefficients double as the oracle for zero coupling: a zero
/// coefficient multiplies whatever (finite) value sits out-of-stencil,
/// contributing an exact ±0.
#[derive(Debug, Clone)]
pub struct StencilPlan {
    nx: usize,
    ny: usize,
    /// Diagonal coefficient (`degree/dx²` on fluid cells, else 0).
    diag: Vec<f64>,
    /// Coupling to `(i+1, j)`.
    cxp: Vec<f64>,
    /// Coupling to `(i-1, j)`.
    cxm: Vec<f64>,
    /// Coupling to `(i, j+1)`.
    cyp: Vec<f64>,
    /// Coupling to `(i, j-1)`.
    cym: Vec<f64>,
    /// 1.0 on fluid cells, 0.0 elsewhere.
    mask: Vec<f64>,
    unknowns: usize,
}

impl StencilPlan {
    /// Precomputes the masked coefficients for `problem`.
    pub fn new(problem: &PoissonProblem<'_>) -> Self {
        let (nx, ny) = (problem.nx(), problem.ny());
        let len = nx * ny;
        let inv_dx2 = 1.0 / (problem.dx * problem.dx);
        let mut plan = Self {
            nx,
            ny,
            diag: vec![0.0; len],
            cxp: vec![0.0; len],
            cxm: vec![0.0; len],
            cyp: vec![0.0; len],
            cym: vec![0.0; len],
            mask: vec![0.0; len],
            unknowns: problem.unknowns(),
        };
        for j in 0..ny {
            for i in 0..nx {
                if !problem.flags.is_fluid(i, j) {
                    continue;
                }
                let c = j * nx + i;
                plan.mask[c] = 1.0;
                plan.diag[c] = problem.degree(i, j) * inv_dx2;
                let fluid = |di: isize, dj: isize| {
                    problem.flags.at_or_solid(i as isize + di, j as isize + dj)
                        == CellType::Fluid
                };
                if fluid(1, 0) {
                    plan.cxp[c] = -inv_dx2;
                }
                if fluid(-1, 0) {
                    plan.cxm[c] = -inv_dx2;
                }
                if fluid(0, 1) {
                    plan.cyp[c] = -inv_dx2;
                }
                if fluid(0, -1) {
                    plan.cym[c] = -inv_dx2;
                }
            }
        }
        plan
    }

    /// System size (fluid cells).
    #[inline]
    pub fn unknowns(&self) -> usize {
        self.unknowns
    }

    /// FLOPs per application: the 5-term stencil is 5 multiplies and
    /// 4 adds per fluid cell.
    pub fn flops(&self) -> u64 {
        9 * self.unknowns as u64
    }

    /// Zeroes every non-fluid entry of `x` in place, so that
    /// whole-slice dot products and norms equal their fluid-masked
    /// counterparts exactly.
    pub fn project(&self, x: &mut Field2) {
        for (v, &m) in x.data_mut().iter_mut().zip(&self.mask) {
            if m == 0.0 {
                *v = 0.0;
            }
        }
    }

    /// One guarded (bounds-checked) cell — used for the first and last
    /// grid rows.
    #[inline]
    fn cell_guarded(&self, x: &[f64], c: usize) -> f64 {
        let len = x.len();
        let xp = if c + 1 < len { x[c + 1] } else { 0.0 };
        let xm = if c >= 1 { x[c - 1] } else { 0.0 };
        let yp = if c + self.nx < len { x[c + self.nx] } else { 0.0 };
        let ym = if c >= self.nx { x[c - self.nx] } else { 0.0 };
        self.diag[c] * x[c]
            + self.cxp[c] * xp
            + self.cxm[c] * xm
            + self.cyp[c] * yp
            + self.cym[c] * ym
    }

    /// Applies the operator: `out = A x` (same semantics as
    /// [`PoissonProblem::apply`], bit-for-bit across dispatch levels).
    pub fn apply(&self, x: &Field2, out: &mut Field2) {
        assert_eq!((x.w(), x.h()), (self.nx, self.ny), "x shape");
        assert_eq!((out.w(), out.h()), (self.nx, self.ny), "out shape");
        let nx = self.nx;
        let len = nx * self.ny;
        // Guarded edges: the first and last grid rows may index
        // out-of-bounds neighbours.
        let interior = nx.min(len)..len.saturating_sub(nx);
        {
            let xs = x.data();
            let o = out.data_mut();
            for (c, oc) in o.iter_mut().enumerate().take(interior.start) {
                *oc = self.cell_guarded(xs, c);
            }
            for (c, oc) in o.iter_mut().enumerate().take(len).skip(interior.end) {
                *oc = self.cell_guarded(xs, c);
            }
        }
        if interior.is_empty() {
            return;
        }
        match sfn_par::simd::level() {
            #[cfg(target_arch = "x86_64")]
            sfn_par::simd::SimdLevel::Avx2 => unsafe {
                self.apply_interior_avx2(x.data(), out.data_mut(), interior)
            },
            _ => self.apply_interior_scalar(x.data(), out.data_mut(), interior),
        }
    }

    /// Scalar reference for the branch-free interior.
    fn apply_interior_scalar(&self, x: &[f64], out: &mut [f64], span: std::ops::Range<usize>) {
        let nx = self.nx;
        for c in span {
            out[c] = self.diag[c] * x[c]
                + self.cxp[c] * x[c + 1]
                + self.cxm[c] * x[c - 1]
                + self.cyp[c] * x[c + nx]
                + self.cym[c] * x[c - nx];
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn apply_interior_avx2(&self, x: &[f64], out: &mut [f64], span: std::ops::Range<usize>) {
        use std::arch::x86_64::*;
        let nx = self.nx;
        let xp = x.as_ptr();
        let op = out.as_mut_ptr();
        let (dg, cxp, cxm, cyp, cym) = (
            self.diag.as_ptr(),
            self.cxp.as_ptr(),
            self.cxm.as_ptr(),
            self.cyp.as_ptr(),
            self.cym.as_ptr(),
        );
        let mut c = span.start;
        // Same mul/add sequence as the scalar loop — bit-identical.
        while c + 4 <= span.end {
            let mut acc = _mm256_mul_pd(_mm256_loadu_pd(dg.add(c)), _mm256_loadu_pd(xp.add(c)));
            acc = _mm256_add_pd(
                acc,
                _mm256_mul_pd(_mm256_loadu_pd(cxp.add(c)), _mm256_loadu_pd(xp.add(c + 1))),
            );
            acc = _mm256_add_pd(
                acc,
                _mm256_mul_pd(_mm256_loadu_pd(cxm.add(c)), _mm256_loadu_pd(xp.add(c - 1))),
            );
            acc = _mm256_add_pd(
                acc,
                _mm256_mul_pd(_mm256_loadu_pd(cyp.add(c)), _mm256_loadu_pd(xp.add(c + nx))),
            );
            acc = _mm256_add_pd(
                acc,
                _mm256_mul_pd(_mm256_loadu_pd(cym.add(c)), _mm256_loadu_pd(xp.add(c - nx))),
            );
            _mm256_storeu_pd(op.add(c), acc);
            c += 4;
        }
        if c < span.end {
            self.apply_interior_scalar(x, out, c..span.end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_grid::CellFlags;

    #[allow(clippy::needless_range_loop)]
    fn dense_matrix(p: &PoissonProblem<'_>) -> Vec<Vec<f64>> {
        // Build A column by column via apply on unit vectors.
        let (nx, ny) = (p.nx(), p.ny());
        let n = nx * ny;
        let mut cols = vec![vec![0.0; n]; n];
        let mut e = Field2::new(nx, ny);
        let mut out = Field2::new(nx, ny);
        for c in 0..n {
            e.fill(0.0);
            e.data_mut()[c] = 1.0;
            p.apply(&e, &mut out);
            for r in 0..n {
                cols[c][r] = out.data()[r];
            }
        }
        cols
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn operator_is_symmetric() {
        let mut flags = CellFlags::smoke_box(8, 8);
        flags.add_solid_disc(4.0, 4.0, 1.5);
        let p = PoissonProblem::new(&flags, 1.0);
        let a = dense_matrix(&p);
        let n = a.len();
        for c in 0..n {
            for r in 0..n {
                assert!(
                    (a[c][r] - a[r][c]).abs() < 1e-12,
                    "A[{r}][{c}] asymmetric: {} vs {}",
                    a[c][r],
                    a[r][c]
                );
            }
        }
    }

    #[test]
    fn operator_is_positive_semidefinite_on_random_vectors() {
        let flags = CellFlags::closed_box(6, 6);
        let p = PoissonProblem::new(&flags, 1.0);
        let mut out = Field2::new(6, 6);
        let mut state = 12345u64;
        for _ in 0..20 {
            let x = Field2::from_fn(6, 6, |_, _| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f64 / 500.0 - 1.0
            });
            p.apply(&x, &mut out);
            let q = p.dot(&x, &out);
            assert!(q >= -1e-9, "x'Ax = {q} < 0");
        }
    }

    #[test]
    fn constant_vector_in_nullspace_of_closed_domain() {
        let flags = CellFlags::closed_box(6, 6);
        let p = PoissonProblem::new(&flags, 1.0);
        let x = Field2::from_fn(6, 6, |_, _| 1.0);
        let mut out = Field2::new(6, 6);
        p.apply(&x, &mut out);
        assert!(out.max_abs() < 1e-12, "closed domain must annihilate constants");
    }

    #[test]
    fn open_domain_does_not_annihilate_constants() {
        let flags = CellFlags::smoke_box(6, 6);
        let p = PoissonProblem::new(&flags, 1.0);
        // Constants are NOT in the nullspace: top fluid row sees empty.
        let x = Field2::from_fn(6, 6, |_, _| 1.0);
        let mut out = Field2::new(6, 6);
        p.apply(&x, &mut out);
        assert!(out.max_abs() > 0.0);
    }

    #[test]
    fn interior_row_is_standard_five_point() {
        let flags = CellFlags::all_fluid(5, 5);
        let p = PoissonProblem::new(&flags, 0.5);
        let mut x = Field2::new(5, 5);
        x.set(2, 2, 1.0);
        let mut out = Field2::new(5, 5);
        p.apply(&x, &mut out);
        let inv_dx2 = 4.0;
        assert_eq!(out.at(2, 2), 4.0 * inv_dx2);
        assert_eq!(out.at(1, 2), -inv_dx2);
        assert_eq!(out.at(3, 2), -inv_dx2);
        assert_eq!(out.at(2, 1), -inv_dx2);
        assert_eq!(out.at(2, 3), -inv_dx2);
        assert_eq!(out.at(0, 0), 3.0 * 0.0); // untouched corner
    }

    #[test]
    fn solid_neighbour_reduces_degree() {
        let mut flags = CellFlags::all_fluid(3, 3);
        flags.set(0, 1, sfn_grid::CellType::Solid);
        let p = PoissonProblem::new(&flags, 1.0);
        // Cell (1,1): neighbours (0,1) solid, rest fluid -> degree 3.
        assert_eq!(p.degree(1, 1), 3.0);
        // Cell (1,0): bottom edge -> outside is solid -> degree 3.
        assert_eq!(p.degree(1, 0), 3.0);
    }

    #[test]
    fn empty_neighbour_keeps_degree_but_no_coupling() {
        let mut flags = CellFlags::all_fluid(3, 3);
        flags.set(1, 2, sfn_grid::CellType::Empty);
        let p = PoissonProblem::new(&flags, 1.0);
        assert_eq!(p.degree(1, 1), 4.0);
        let mut x = Field2::new(3, 3);
        x.set(1, 2, 5.0); // value in an empty cell must be ignored
        let mut out = Field2::new(3, 3);
        p.apply(&x, &mut out);
        assert_eq!(out.at(1, 1), 0.0);
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let flags = CellFlags::smoke_box(6, 6);
        let p = PoissonProblem::new(&flags, 1.0);
        let x = Field2::from_fn(6, 6, |i, j| ((i * 3 + j * 7) % 5) as f64 * 0.1);
        let mut b = Field2::new(6, 6);
        p.apply(&x, &mut b);
        let mut r = Field2::new(6, 6);
        p.residual(&x, &b, &mut r);
        assert!(p.norm(&r) < 1e-12);
    }

    fn mixed_flags(nx: usize, ny: usize) -> CellFlags {
        let mut flags = CellFlags::smoke_box(nx, ny);
        flags.set(nx / 2, ny / 2, sfn_grid::CellType::Solid);
        flags.set(1, ny - 2, sfn_grid::CellType::Empty);
        flags
    }

    #[test]
    fn stencil_plan_matches_matrix_free_apply() {
        for (nx, ny) in [(3, 3), (7, 5), (17, 13)] {
            let flags = mixed_flags(nx, ny);
            let p = PoissonProblem::new(&flags, 0.5);
            let plan = StencilPlan::new(&p);
            assert_eq!(plan.unknowns(), p.unknowns());
            let mut x = Field2::from_fn(nx, ny, |i, j| ((i * 5 + j * 11) % 9) as f64 * 0.25 - 1.0);
            // Non-fluid entries of x are ignored by the matrix-free
            // apply; the plan multiplies them by zero coefficients.
            // Plant garbage there to prove it.
            x.set(nx / 2, ny / 2, 1e9);
            let mut want = Field2::new(nx, ny);
            let mut got = Field2::new(nx, ny);
            p.apply(&x, &mut want);
            plan.apply(&x, &mut got);
            for (a, b) in want.data().iter().zip(got.data()) {
                assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn stencil_plan_vector_path_is_bit_identical_to_scalar() {
        use sfn_par::simd::{with_level, SimdLevel};
        let flags = mixed_flags(19, 11);
        let p = PoissonProblem::new(&flags, 0.25);
        let plan = StencilPlan::new(&p);
        let x = Field2::from_fn(19, 11, |i, j| ((i * 13 + j * 7) % 23) as f64 / 3.0 - 2.0);
        let mut scalar = Field2::new(19, 11);
        let mut auto = Field2::new(19, 11);
        with_level(SimdLevel::Scalar, || plan.apply(&x, &mut scalar));
        plan.apply(&x, &mut auto);
        for (a, b) in scalar.data().iter().zip(auto.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn stencil_plan_project_masks_non_fluid() {
        let flags = mixed_flags(6, 6);
        let p = PoissonProblem::new(&flags, 1.0);
        let plan = StencilPlan::new(&p);
        let mut x = Field2::from_fn(6, 6, |_, _| 3.5);
        plan.project(&mut x);
        for j in 0..6 {
            for i in 0..6 {
                let want = if flags.is_fluid(i, j) { 3.5 } else { 0.0 };
                assert_eq!(x.at(i, j), want);
            }
        }
        assert_eq!(plan.flops(), 9 * p.unknowns() as u64);
    }
}
