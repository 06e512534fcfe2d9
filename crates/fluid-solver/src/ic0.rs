//! Modified Incomplete Cholesky level-0 — MICCG(0).
//!
//! This is the exact preconditioner the paper names for mantaflow:
//! "The pre-conditioner applied in mantaflow is the Modified Incomplete
//! Cholesky L0 preconditioner, called MICCG(0)" (§2.1). We follow the
//! standard formulation for the MAC pressure matrix (Bridson, *Fluid
//! Simulation for Computer Graphics*): a lower-triangular factor with
//! the same sparsity as `A`, whose diagonal absorbs a `τ`-weighted
//! share of the dropped fill-in.
//!
//! The factor is built on the *unscaled* stencil (diagonal = neighbour
//! degree, off-diagonal −1); a constant scaling of `M` leaves the PCG
//! iteration unchanged, so the `1/dx²` factor can be ignored.
//!
//! # The sweeps are recurrences
//!
//! Applying the factor is two triangular substitutions, and each is a
//! recurrence: cell `(i, j)` needs the finished values of `(i−1, j)`
//! and `(i, j−1)` (mirrored for the backward sweep). Walked in
//! lexicographic order that is a single dependency chain through the
//! whole grid — multiply, subtract, subtract, multiply, every cell
//! waiting for the one before it — so the core sits on floating-point
//! latency with its ports idle. The recurrence, though, only orders a
//! cell after its two predecessors. Any order that respects that gives
//! every cell the same operands and the same operations in the same
//! order, hence the same bits. [`MicFactor::apply`] walks `R = 4` rows
//! at once with row `k` lagging `k` columns, which keeps four
//! independent chains in flight. This is scalar instruction-level
//! parallelism: there is no vector path and nothing for `SFN_SIMD` to
//! select. The lexicographic sweep survives in this module's tests as
//! the oracle the skewed one is compared against bit for bit.
//!
//! `R` was chosen on the sweep alone (one apply at 128², 2-vCPU x86-64
//! dev box, µs): 1 row 103, 2 rows 64, 3 rows 47, **4 rows 37**, 8 rows
//! 32 — against 169 for the lexicographic sweep with its per-call
//! buffers. Eight rows buy little more and lengthen the guarded ramps
//! at both ends of every band, which is what small grids mostly are.

use crate::laplace::PoissonProblem;
use crate::pcg::{Preconditioner, PreparedPreconditioner};
use sfn_grid::{CellType, Field2};

/// MIC(0) factory. `tau` blends incomplete Cholesky (0.0) with the
/// fully modified variant (1.0); `sigma` is the diagonal safety clamp.
#[derive(Debug, Clone, Copy)]
pub struct MicPreconditioner {
    /// Modification weight τ (0.97 is the literature default).
    pub tau: f64,
    /// Safety threshold σ: if the computed pivot drops below
    /// `σ · A_diag`, fall back to the unmodified diagonal.
    pub sigma: f64,
}

impl Default for MicPreconditioner {
    fn default() -> Self {
        Self {
            tau: 0.97,
            sigma: 0.25,
        }
    }
}

impl Preconditioner for MicPreconditioner {
    type Prepared = MicFactor;

    fn prepare(&self, problem: &PoissonProblem<'_>) -> MicFactor {
        MicFactor::build(problem, self.tau, self.sigma)
    }

    fn name(&self) -> &'static str {
        "mic0"
    }
}

/// Rows a triangular sweep keeps in flight (module docs: why, and what
/// 4 was measured against).
const R: usize = 4;

/// The prepared MIC(0) factor: `precon(i,j) = 1/L_diag(i,j)`, plus
/// precomputed substitution coefficients.
///
/// The link arrays bake the `a_plus · precon` products in once at build
/// time, so both sweeps are straight multiply-subtract recurrences with
/// no flag queries. Every array covers *all* cells: on a non-fluid cell
/// the links and `precon` are `+0.0`, which is what lets the sweeps run
/// over the whole grid without a fluid-cell index list.
#[derive(Debug, Clone)]
pub struct MicFactor {
    /// Diagonal scaling of both sweeps (`+0.0` on non-fluid cells).
    precon: Field2,
    /// Forward coefficient on `q(i-1, j)`: `a_plus_i(i-1,j)·precon(i-1,j)`.
    li: Vec<f64>,
    /// Forward coefficient on `q(i, j-1)`: `a_plus_j(i,j-1)·precon(i,j-1)`.
    lj: Vec<f64>,
    /// Backward coefficient on `z(i+1, j)`: `a_plus_i(i,j)·precon(i,j)`.
    ui: Vec<f64>,
    /// Backward coefficient on `z(i, j+1)`: `a_plus_j(i,j)·precon(i,j)`.
    uj: Vec<f64>,
}

impl MicFactor {
    /// Off-diagonal entry linking `(i,j)` to `(i+1,j)` in the unscaled
    /// matrix: −1 when both cells are fluid, else 0.
    #[inline]
    fn a_plus_i(problem: &PoissonProblem<'_>, i: isize, j: isize) -> f64 {
        let here = problem.flags.at_or_solid(i, j);
        let right = problem.flags.at_or_solid(i + 1, j);
        if here == CellType::Fluid && right == CellType::Fluid {
            -1.0
        } else {
            0.0
        }
    }

    /// Off-diagonal entry linking `(i,j)` to `(i,j+1)`.
    #[inline]
    fn a_plus_j(problem: &PoissonProblem<'_>, i: isize, j: isize) -> f64 {
        let here = problem.flags.at_or_solid(i, j);
        let up = problem.flags.at_or_solid(i, j + 1);
        if here == CellType::Fluid && up == CellType::Fluid {
            -1.0
        } else {
            0.0
        }
    }

    /// Builds the factor in one lexicographic sweep.
    pub fn build(problem: &PoissonProblem<'_>, tau: f64, sigma: f64) -> Self {
        // Its own dotted name, so `mic0` calls count applies only;
        // tools that aggregate by first segment still see one kernel.
        let scope = sfn_prof::KernelScope::enter("mic0.build");
        if scope.active() {
            // One sweep: ~14 flops per fluid cell over the two already
            // computed neighbour pivots (~4 doubles read, 1 written).
            let n = problem.unknowns() as u64;
            scope.record(14 * n, 4 * n * 8, n * 8);
        }
        let (nx, ny) = (problem.nx(), problem.ny());
        let mut precon = Field2::new(nx, ny);
        for j in 0..ny {
            for i in 0..nx {
                if !problem.flags.is_fluid(i, j) {
                    continue;
                }
                let (ii, jj) = (i as isize, j as isize);
                let a_diag = problem.degree(i, j);
                let pl = if i > 0 { precon.at(i - 1, j) } else { 0.0 };
                let pb = if j > 0 { precon.at(i, j - 1) } else { 0.0 };
                let apl = Self::a_plus_i(problem, ii - 1, jj); // link (i-1,j)->(i,j)
                let apb = Self::a_plus_j(problem, ii, jj - 1); // link (i,j-1)->(i,j)
                // Fill-in terms of the modified factorisation.
                let apl_j = Self::a_plus_j(problem, ii - 1, jj);
                let apb_i = Self::a_plus_i(problem, ii, jj - 1);
                let mut e = a_diag
                    - (apl * pl) * (apl * pl)
                    - (apb * pb) * (apb * pb)
                    - tau * (apl * apl_j * pl * pl + apb * apb_i * pb * pb);
                if e < sigma * a_diag {
                    e = a_diag;
                }
                precon.set(i, j, 1.0 / e.sqrt());
            }
        }
        // Bake the substitution coefficients (same `(a_plus · precon)`
        // grouping as the naive sweep, so rounding is unchanged).
        let len = nx * ny;
        let (mut li, mut lj) = (vec![0.0; len], vec![0.0; len]);
        let (mut ui, mut uj) = (vec![0.0; len], vec![0.0; len]);
        for j in 0..ny {
            for i in 0..nx {
                if !problem.flags.is_fluid(i, j) {
                    continue;
                }
                let c = j * nx + i;
                let (ii, jj) = (i as isize, j as isize);
                if i > 0 {
                    li[c] = Self::a_plus_i(problem, ii - 1, jj) * precon.at(i - 1, j);
                }
                if j > 0 {
                    lj[c] = Self::a_plus_j(problem, ii, jj - 1) * precon.at(i, j - 1);
                }
                ui[c] = Self::a_plus_i(problem, ii, jj) * precon.at(i, j);
                uj[c] = Self::a_plus_j(problem, ii, jj) * precon.at(i, j);
            }
        }
        Self {
            precon,
            li,
            lj,
            ui,
            uj,
        }
    }

    /// Read-only access to the diagonal factor (for tests).
    pub fn precon(&self) -> &Field2 {
        &self.precon
    }

    /// One triangular sweep over every cell, in place on `z`: forward
    /// (`L q = r`, source `r`) or, with `REV`, backward (`Lᵀ z = q`,
    /// source the `q` already in `z`). The backward sweep is the
    /// forward one on the grid turned by 180°: cell `c` of the sweep
    /// lives at memory index `len − 1 − c`, everything else is shared.
    ///
    /// Each cell evaluates `((src − a·prev) − b·cross)·pc`, where `prev`
    /// is the cell before it in its row and `cross` the same column of
    /// the row swept before; a neighbour outside the grid reads `+0.0`.
    /// Rows go [`R`] at a time with row `k` lagging `k` columns, so row
    /// `k − 1` left a column one step before row `k` enters it: the `R`
    /// cells of a step are independent, and each finds both operands in
    /// `carry`.
    #[inline(always)]
    fn sweep<const REV: bool>(&self, r: &[f64], z: &mut [f64]) {
        let (nx, ny) = (self.precon.w(), self.precon.h());
        let len = nx * ny;
        let pc = self.precon.data();
        let (a, b) = if REV {
            (&self.ui, &self.uj)
        } else {
            (&self.li, &self.lj)
        };
        // The one length check the unchecked loop below relies on.
        assert!([z.len(), pc.len(), a.len(), b.len()] == [len; 4] && (REV || r.len() == len));
        let at = |row: usize, col: usize| {
            debug_assert!(row < ny && col < nx);
            let c = row * nx + col;
            if REV {
                len - 1 - c
            } else {
                c
            }
        };
        for row0 in (0..ny).step_by(R) {
            let rows = R.min(ny - row0);
            // carry[k]: the value row `row0 + k` computed last — its own
            // `prev`, and the `cross` of row `k + 1` one column behind
            // (which is why a step goes from the last row to the first).
            let mut carry = [0.0f64; R];
            // One guarded step of the ramps, where some rows have not
            // entered the grid yet or have already left it.
            let ramp = |t: usize, carry: &mut [f64; R], z: &mut [f64]| {
                for k in (0..rows).rev().filter(|&k| t >= k && t - k < nx) {
                    let c = at(row0 + k, t - k);
                    let cross = match (k, row0) {
                        (0, 0) => 0.0,
                        (0, _) => z[at(row0 - 1, t)],
                        _ => carry[k - 1],
                    };
                    // Non-fluid `r` may hold anything: `pc` is the mask.
                    let src = if REV {
                        z[c]
                    } else if pc[c] != 0.0 {
                        r[c]
                    } else {
                        0.0
                    };
                    carry[k] = ((src - a[c] * carry[k]) - b[c] * cross) * pc[c];
                    z[c] = carry[k];
                }
            };
            // Steps with all R rows inside the grid.
            let steady = if rows == R && nx >= R {
                R - 1..nx
            } else {
                0..0
            };
            for t in 0..steady.start {
                ramp(t, &mut carry, z);
            }
            for t in steady.clone() {
                for k in (0..R).rev() {
                    let c = at(row0 + k, t - k);
                    // SAFETY: `at` returns an index below `len` for a
                    // row below `ny` and a column below `nx`: here
                    // `row0 + k < row0 + R <= ny` and `k <= t < nx`.
                    // All five slices were asserted `len` long above.
                    unsafe {
                        let cross = match (k, row0) {
                            (0, 0) => 0.0,
                            (0, _) => *z.get_unchecked(at(row0 - 1, t)),
                            _ => carry[k - 1],
                        };
                        let p = *pc.get_unchecked(c);
                        let src = if REV {
                            *z.get_unchecked(c)
                        } else if p != 0.0 {
                            *r.get_unchecked(c)
                        } else {
                            0.0
                        };
                        carry[k] = ((src - a.get_unchecked(c) * carry[k])
                            - b.get_unchecked(c) * cross)
                            * p;
                        *z.get_unchecked_mut(c) = carry[k];
                    }
                }
            }
            for t in steady.end..nx + rows - 1 {
                ramp(t, &mut carry, z);
            }
        }
    }
}

impl PreparedPreconditioner for MicFactor {
    /// `z = M⁻¹ r` via forward substitution `L q = r` followed by
    /// backward substitution `Lᵀ z = q`, both in place on `z` and both
    /// row-skewed (module docs); allocates nothing. Every cell of `z` is
    /// overwritten, and the non-fluid ones come out `+0.0` whatever `r`
    /// holds there.
    fn apply(&self, problem: &PoissonProblem<'_>, r: &Field2, z: &mut Field2) {
        let scope = sfn_prof::KernelScope::enter("mic0");
        let shape = (self.precon.w(), self.precon.h());
        if scope.active() {
            // Per cell and sweep: source, diagonal and two links read,
            // one value written; `prev` and `cross` stay in registers
            // except for the first row of each band of R.
            let cells = (shape.0 * shape.1) as u64;
            let reads = 8 * cells + 2 * cells / R as u64;
            scope.record(self.flops(problem), reads * 8, 2 * cells * 8);
        }
        assert_eq!((r.w(), r.h()), shape, "r shape");
        assert_eq!((z.w(), z.h()), shape, "z shape");
        self.sweep::<false>(r.data(), z.data_mut());
        self.sweep::<true>(&[], z.data_mut());
    }

    fn flops(&self, problem: &PoissonProblem<'_>) -> u64 {
        // Two triangular sweeps: 2 multiply-subtract pairs plus the
        // diagonal scale = 5 flops per fluid cell each. The multiplies
        // by zero on non-fluid cells are not useful work.
        10 * problem.unknowns() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcg::{CgSolver, PcgSolver};
    use crate::PoissonSolver;
    use sfn_grid::CellFlags;

    fn random_rhs(flags: &CellFlags, seed: u64) -> Field2 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        Field2::from_fn(flags.nx(), flags.ny(), |i, j| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if flags.is_fluid(i, j) {
                (state % 2000) as f64 / 1000.0 - 1.0
            } else {
                0.0
            }
        })
    }

    /// The sweep `apply` replaced, kept as its oracle: lexicographic
    /// forward/backward substitution, one fluid cell after another, on
    /// zero-padded flat buffers.
    fn apply_reference(f: &MicFactor, flags: &CellFlags, r: &Field2, z: &mut Field2) {
        let (nx, len) = (flags.nx(), flags.nx() * flags.ny());
        let fluid: Vec<usize> = (0..len)
            .filter(|&c| flags.is_fluid(c % nx, c / nx))
            .collect();
        let pc = f.precon.data();
        let off = nx + 1;
        let mut q = vec![0.0; len + 2 * (nx + 1)];
        let rd = r.data();
        for &c in &fluid {
            let t = rd[c] - f.li[c] * q[off + c - 1] - f.lj[c] * q[off + c - nx];
            q[off + c] = t * pc[c];
        }
        let mut zb = vec![0.0; len + 2 * (nx + 1)];
        for &c in fluid.iter().rev() {
            let t = q[off + c] - f.ui[c] * zb[off + c + 1] - f.uj[c] * zb[off + c + nx];
            zb[off + c] = t * pc[c];
        }
        z.fill(0.0);
        let zd = z.data_mut();
        for &c in &fluid {
            zd[c] = zb[off + c];
        }
    }

    #[test]
    fn skewed_sweeps_match_the_lexicographic_reference_bit_for_bit() {
        sfn_rng::prop::cases(600, |g| {
            let (nx, ny) = (g.range(1..=40usize), g.range(1..=40usize));
            // Without side walls the two may differ in the sign of a
            // zero: the reference reads the far end of the adjacent row
            // (times a zero link) where `apply` reads `+0.0`.
            let walled = g.range(0..4) != 0;
            let mut flags = match (walled, g.range(0..2)) {
                (false, _) => CellFlags::all_fluid(nx, ny),
                (true, 0) => CellFlags::smoke_box(nx, ny),
                (true, _) => CellFlags::closed_box(nx, ny),
            };
            for _ in 0..g.range(0..3usize) {
                let (cx, cy) = (g.range(0.0..nx as f64), g.range(0.0..ny as f64));
                if g.range(0..2) == 0 {
                    flags.add_solid_disc(cx, cy, g.range(0.5..6.0));
                } else {
                    flags.add_solid_box(cx, cy, cx + g.range(0.5..8.0), cy + g.range(0.5..8.0));
                }
            }
            if g.range(0..4) == 0 {
                let j = g.range(0..ny);
                for i in 0..nx {
                    flags.set(i, j, CellType::Solid);
                }
            }
            // A fluid cell walled in on all four sides has a zero pivot
            // and an infinite `precon`; neither sweep survives that.
            for c in 0..nx * ny {
                let (i, j) = (c % nx, c / nx);
                if flags.is_fluid(i, j) && PoissonProblem::new(&flags, 1.0).degree(i, j) == 0.0 {
                    flags.set(i, j, CellType::Solid);
                }
            }
            let p = PoissonProblem::new(&flags, 1.0);
            let tau = if g.range(0..2) == 0 { 0.0 } else { 0.97 };
            let f = MicFactor::build(&p, tau, 0.25);
            // Fluid cells: values with exact and signed zeros mixed in
            // (`divergence_rhs` makes `-0.0` out of every still cell).
            // Non-fluid cells: garbage the sweep must not let through.
            let r = Field2::from_fn(nx, ny, |i, j| match (flags.is_fluid(i, j), g.range(0..8)) {
                (true, 0) => 0.0,
                (true, 1) => -0.0,
                (true, _) => g.range(-1.0..1.0),
                (false, 0) => -0.0,
                (false, _) => g.range(-1e6..1e6),
            });
            let mut want = Field2::new(nx, ny);
            apply_reference(&f, &flags, &r, &mut want);
            // `z` arrives dirty: every cell must be overwritten.
            let mut got = Field2::from_fn(nx, ny, |_, _| f64::NAN);
            f.apply(&p, &r, &mut got);
            for (c, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
                let same = if walled {
                    a.to_bits() == b.to_bits()
                } else {
                    a == b
                };
                assert!(same, "{nx}x{ny} tau {tau} cell {c}: {a} vs {b}");
                if !flags.is_fluid(c % nx, c / nx) {
                    assert_eq!(a.to_bits(), 0, "non-fluid cell {c} must be +0.0");
                }
            }
        });
    }

    #[test]
    fn factor_is_positive_on_fluid_cells() {
        let mut flags = CellFlags::smoke_box(16, 16);
        flags.add_solid_disc(8.0, 8.0, 3.0);
        let p = PoissonProblem::new(&flags, 1.0);
        let f = MicFactor::build(&p, 0.97, 0.25);
        for j in 0..16 {
            for i in 0..16 {
                if flags.is_fluid(i, j) {
                    assert!(f.precon().at(i, j) > 0.0);
                } else {
                    assert_eq!(f.precon().at(i, j), 0.0);
                }
            }
        }
    }

    #[test]
    fn preconditioner_application_is_spd() {
        // z = M⁻¹r must satisfy r·z > 0 for r ≠ 0 (M SPD).
        let flags = CellFlags::smoke_box(12, 12);
        let p = PoissonProblem::new(&flags, 1.0);
        let f = MicFactor::build(&p, 0.97, 0.25);
        let mut z = Field2::new(12, 12);
        for seed in 0..10 {
            let r = random_rhs(&flags, seed);
            f.apply(&p, &r, &mut z);
            assert!(p.dot(&r, &z) > 0.0, "seed {seed}");
        }
    }

    #[test]
    fn preconditioner_is_symmetric() {
        // x·(M⁻¹y) == y·(M⁻¹x) for all x, y.
        let flags = CellFlags::smoke_box(10, 10);
        let p = PoissonProblem::new(&flags, 1.0);
        let f = MicFactor::build(&p, 0.97, 0.25);
        let x = random_rhs(&flags, 42);
        let y = random_rhs(&flags, 43);
        let mut mx = Field2::new(10, 10);
        let mut my = Field2::new(10, 10);
        f.apply(&p, &x, &mut mx);
        f.apply(&p, &y, &mut my);
        let a = p.dot(&x, &my);
        let b = p.dot(&y, &mx);
        assert!((a - b).abs() < 1e-9 * a.abs().max(b.abs()).max(1.0));
    }

    #[test]
    fn pcg_converges_faster_than_cg() {
        let mut flags = CellFlags::smoke_box(48, 48);
        flags.add_solid_disc(24.0, 20.0, 6.0);
        let p = PoissonProblem::new(&flags, 1.0);
        let b = random_rhs(&flags, 9);
        let cg = CgSolver::plain(1e-8, 10_000);
        let pcg = PcgSolver::new(MicPreconditioner::default(), 1e-8, 10_000);
        let (_, s1) = cg.solve(&p, &b);
        let (_, s2) = pcg.solve(&p, &b);
        assert!(s1.converged && s2.converged);
        assert!(
            s2.iterations * 2 < s1.iterations,
            "MICCG(0) {} vs CG {} iterations",
            s2.iterations,
            s1.iterations
        );
    }

    #[test]
    fn pcg_solution_matches_cg_solution() {
        let flags = CellFlags::smoke_box(16, 16);
        let p = PoissonProblem::new(&flags, 1.0);
        let b = random_rhs(&flags, 77);
        let cg = CgSolver::plain(1e-11, 10_000);
        let pcg = PcgSolver::new(MicPreconditioner::default(), 1e-11, 10_000);
        let (x1, _) = cg.solve(&p, &b);
        let (x2, _) = pcg.solve(&p, &b);
        for (a, b) in x1.data().iter().zip(x2.data()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn plain_ic0_also_works() {
        // τ=0 is classic IC(0); should still precondition correctly.
        let flags = CellFlags::smoke_box(24, 24);
        let p = PoissonProblem::new(&flags, 1.0);
        let b = random_rhs(&flags, 5);
        let ic = PcgSolver::new(
            MicPreconditioner {
                tau: 0.0,
                sigma: 0.25,
            },
            1e-8,
            5_000,
        );
        let (x, stats) = ic.solve(&p, &b);
        assert!(stats.converged);
        let mut r = Field2::new(24, 24);
        p.residual(&x, &b, &mut r);
        assert!(p.norm(&r) / p.norm(&b) < 1e-7);
    }
}
