//! (Preconditioned) conjugate-gradient solvers (Algorithm 1 lines 8–17).
//!
//! The PCG loop follows the paper's pseudo-code: initial guess 0,
//! residual `r = b`, search direction `s = M⁻¹ r`, and the classic
//! α/β updates until the residual meets the convergence criterion.
//!
//! Preconditioners are split into a cheap *factory* ([`Preconditioner`])
//! and a per-problem *factorisation* ([`PreparedPreconditioner`]) so
//! that setup work (e.g. the MIC(0) incomplete Cholesky factor) is done
//! once per geometry rather than once per iteration — or per solve: a
//! simulation's flags do not change between steps, so [`PcgSolver`]
//! keeps what it prepared for the last `(flags, dx)` it saw.

use crate::laplace::{PoissonProblem, StencilPlan};
use crate::{PoissonSolver, SolveStats};
use sfn_grid::{CellFlags, Field2};
use std::sync::Mutex;

/// Factory for a preconditioner `M ≈ A`.
pub trait Preconditioner {
    /// The prepared (factorised) form.
    type Prepared: PreparedPreconditioner;

    /// Factorises the preconditioner for a concrete problem.
    fn prepare(&self, problem: &PoissonProblem<'_>) -> Self::Prepared;

    /// Name for reports.
    fn name(&self) -> &'static str;
}

/// A factorised preconditioner, applied as `z = M⁻¹ r`.
pub trait PreparedPreconditioner {
    /// Applies the preconditioner to `r`, writing `z`.
    fn apply(&self, problem: &PoissonProblem<'_>, r: &Field2, z: &mut Field2);

    /// Approximate FLOPs per application.
    fn flops(&self, problem: &PoissonProblem<'_>) -> u64;
}

/// The identity preconditioner: PCG degenerates to plain CG.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    type Prepared = IdentityPreconditioner;

    fn prepare(&self, _problem: &PoissonProblem<'_>) -> Self {
        *self
    }

    fn name(&self) -> &'static str {
        "identity"
    }
}

impl PreparedPreconditioner for IdentityPreconditioner {
    fn apply(&self, _problem: &PoissonProblem<'_>, r: &Field2, z: &mut Field2) {
        z.clone_from(r);
    }

    fn flops(&self, _problem: &PoissonProblem<'_>) -> u64 {
        0
    }
}

/// Everything a solve needs that depends only on the geometry: the
/// stencil plan, the factorised preconditioner and the CG vectors.
struct Operator<P> {
    /// The geometry all of the below was built for — the equality key.
    flags: CellFlags,
    dx: f64,
    plan: StencilPlan,
    prepared: P,
    /// Work vectors; every solve overwrites each before reading it.
    r: Field2,
    z: Field2,
    s: Field2,
    as_: Field2,
}

impl<P> Operator<P> {
    fn new<M: Preconditioner<Prepared = P>>(
        preconditioner: &M,
        problem: &PoissonProblem<'_>,
    ) -> Self {
        let field = || Field2::new(problem.nx(), problem.ny());
        Self {
            flags: problem.flags.clone(),
            dx: problem.dx,
            plan: StencilPlan::new(problem),
            prepared: preconditioner.prepare(problem),
            r: field(),
            z: field(),
            s: field(),
            as_: field(),
        }
    }
}

/// Conjugate gradients with a pluggable preconditioner.
///
/// Tolerance is on the *relative* ℓ₂ residual `‖r‖/‖b‖`. The solver is
/// robust to the semi-definite closed-box case: a compatible `b` keeps
/// the Krylov space orthogonal to the null-space.
///
/// # The prepared operator
///
/// The first solve on a geometry builds the stencil plan, factorises
/// the preconditioner and sizes the work vectors; the solver keeps them
/// and later solves reuse them for as long as the problem's `flags`
/// compare equal and its `dx` has the same bits. Any other problem is a
/// miss that rebuilds and replaces them, so results never depend on what
/// was solved before. A warm solve allocates the returned pressure and
/// nothing else. A clone starts empty, and concurrent solves through one
/// shared solver take turns. The preconditioner is fixed at construction
/// because the kept factorisation was made by it.
pub struct PcgSolver<M: Preconditioner> {
    preconditioner: M,
    /// Relative residual tolerance.
    pub tolerance: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    operator: Mutex<Option<Operator<M::Prepared>>>,
}

impl<M: Preconditioner + Clone> Clone for PcgSolver<M> {
    fn clone(&self) -> Self {
        Self::new(
            self.preconditioner.clone(),
            self.tolerance,
            self.max_iterations,
        )
    }
}

impl<M: Preconditioner + std::fmt::Debug> std::fmt::Debug for PcgSolver<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PcgSolver")
            .field("preconditioner", &self.preconditioner)
            .field("tolerance", &self.tolerance)
            .field("max_iterations", &self.max_iterations)
            .finish_non_exhaustive()
    }
}

impl<M: Preconditioner> PcgSolver<M> {
    /// Creates a solver with the given preconditioner, tolerance and
    /// iteration budget.
    pub fn new(preconditioner: M, tolerance: f64, max_iterations: usize) -> Self {
        assert!(tolerance > 0.0, "tolerance must be positive");
        assert!(max_iterations > 0, "need at least one iteration");
        Self {
            preconditioner,
            tolerance,
            max_iterations,
            operator: Mutex::new(None),
        }
    }
}

/// Plain CG: `PcgSolver` with the identity preconditioner.
pub type CgSolver = PcgSolver<IdentityPreconditioner>;

impl CgSolver {
    /// Plain conjugate gradients with the given tolerance/budget.
    pub fn plain(tolerance: f64, max_iterations: usize) -> Self {
        PcgSolver::new(IdentityPreconditioner, tolerance, max_iterations)
    }
}

impl<M: Preconditioner> PcgSolver<M> {
    fn solve_inner(&self, problem: &PoissonProblem<'_>, b: &Field2) -> (Field2, SolveStats) {
        let (nx, ny) = (problem.nx(), problem.ny());
        assert_eq!((b.w(), b.h()), (nx, ny), "rhs shape");
        let mut x = Field2::new(nx, ny);

        // A poisoned lock means a solve panicked part-way. The slot is
        // only ever assigned a complete `Operator`, and its work vectors
        // are rewritten by each solve before they are read, so whatever
        // that solve left behind is still valid.
        let mut slot = self.operator.lock().unwrap_or_else(|e| e.into_inner());
        let stale = |op: &Operator<_>| {
            op.dx.to_bits() != problem.dx.to_bits() || op.flags != *problem.flags
        };
        if slot.as_ref().is_some_and(stale) {
            *slot = None;
        }
        let Operator {
            plan,
            prepared,
            r,
            z,
            s,
            as_,
            ..
        } = slot.get_or_insert_with(|| Operator::new(&self.preconditioner, problem));

        // All CG vectors are kept zero on non-fluid cells (the residual
        // is masked once up front; the stencil plan and preconditioners
        // preserve the property). Whole-slice SIMD dots/norms then equal
        // their fluid-masked counterparts exactly — zeros contribute
        // nothing — so the loop below never touches cell flags.
        r.data_mut().copy_from_slice(b.data());
        plan.project(r);
        let b_norm = sfn_grid::simd::norm_sq(r.data()).sqrt();
        if b_norm == 0.0 {
            return (x, SolveStats::trivial());
        }

        let n = problem.unknowns() as u64;
        let pre_flops = prepared.flops(problem);
        // Per iteration: 1 A·s (9n), 1 M⁻¹r, and six 2n-flop vector ops
        // (2 dots, 2 axpys, 1 norm, 1 xpay) = 12n.
        let iter_flops = plan.flops() + pre_flops + 12 * n;
        // Setup: initial M⁻¹ apply, ‖b‖ and one dot.
        let mut flops = pre_flops + 4 * n;

        prepared.apply(problem, r, z);
        s.data_mut().copy_from_slice(z.data());
        let mut rz = sfn_grid::simd::dot(r.data(), z.data());

        let mut rel = 1.0;
        for it in 1..=self.max_iterations {
            plan.apply(s, as_);
            let s_as = sfn_grid::simd::dot(s.data(), as_.data());
            if s_as <= 0.0 || !s_as.is_finite() {
                // Hit the null-space or a numerical breakdown; stop with
                // the current iterate.
                return (
                    x,
                    SolveStats {
                        iterations: it - 1,
                        rel_residual: rel,
                        converged: rel <= self.tolerance,
                        flops,
                    },
                );
            }
            let alpha = rz / s_as;
            sfn_grid::simd::axpy(x.data_mut(), s.data(), alpha);
            // Fused: r += −α·(A s) and ‖r‖² in one pass.
            let r2 = sfn_grid::simd::axpy_norm_sq(r.data_mut(), as_.data(), -alpha);
            flops += iter_flops;
            rel = r2.sqrt() / b_norm;
            if rel <= self.tolerance {
                return (
                    x,
                    SolveStats {
                        iterations: it,
                        rel_residual: rel,
                        converged: true,
                        flops,
                    },
                );
            }
            prepared.apply(problem, r, z);
            let rz_new = sfn_grid::simd::dot(r.data(), z.data());
            let beta = rz_new / rz;
            rz = rz_new;
            sfn_grid::simd::xpay(s.data_mut(), z.data(), beta);
        }
        (
            x,
            SolveStats {
                iterations: self.max_iterations,
                rel_residual: rel,
                converged: false,
                flops,
            },
        )
    }
}

impl<M: Preconditioner> PoissonSolver for PcgSolver<M> {
    fn solve(&self, problem: &PoissonProblem<'_>, b: &Field2) -> (Field2, SolveStats) {
        let scope = sfn_prof::KernelScope::enter(self.name());
        let (x, stats) = self.solve_inner(problem, b);
        if scope.active() {
            // Analytic traffic model, 8-byte doubles: per iteration one
            // stencil apply (~6n read, n written), one preconditioner
            // apply (~10n/2n), two dots (4n) and three axpys (6n/3n),
            // plus the initial pass over b.
            let n = problem.unknowns() as u64;
            let it = stats.iterations as u64;
            scope.record(stats.flops, (n + it * 26 * n) * 8, it * 6 * n * 8);
        }
        crate::observe_solve(self.name(), &stats);
        (x, stats)
    }

    fn name(&self) -> &'static str {
        if self.preconditioner.name() == "identity" {
            "cg"
        } else {
            "pcg"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_grid::CellFlags;

    pub(crate) fn random_rhs(flags: &CellFlags, seed: u64) -> Field2 {
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7);
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

    /// One solver driven through `problems` in order must return what a
    /// fresh solver returns for each, to the bit.
    fn assert_history_free<M: Preconditioner + Clone>(m: M, problems: &[(&CellFlags, f64)]) {
        let kept = PcgSolver::new(m.clone(), 1e-8, 500);
        for (n, &(flags, dx)) in problems.iter().enumerate() {
            let problem = PoissonProblem::new(flags, dx);
            let b = random_rhs(flags, 31 + n as u64);
            let (x, stats) = kept.solve(&problem, &b);
            let (want, want_stats) = PcgSolver::new(m.clone(), 1e-8, 500).solve(&problem, &b);
            assert_eq!(stats, want_stats, "problem {n}");
            assert!(stats.iterations > 0, "problem {n} must exercise the loop");
            let bits = |f: &Field2| f.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x), bits(&want), "problem {n}");
        }
    }

    #[test]
    fn kept_operator_is_rebuilt_when_flags_size_or_dx_change() {
        let a = CellFlags::smoke_box(24, 24);
        let mut b = a.clone();
        b.add_solid_disc(12.0, 10.0, 4.0);
        let c = CellFlags::smoke_box(17, 31);
        // Same size, other obstacle; other size; same flags, other dx —
        // each followed by a return to `a`, which must be a rebuild too.
        let problems = [
            (&a, 1.0),
            (&a, 1.0),
            (&b, 1.0),
            (&a, 1.0),
            (&c, 1.0),
            (&a, 1.0),
            (&a, 0.5),
            (&a, 1.0),
        ];
        assert_history_free(crate::ic0::MicPreconditioner::default(), &problems);
        assert_history_free(IdentityPreconditioner, &problems);
    }

    #[test]
    fn clone_starts_empty_and_shares_nothing() {
        let flags = CellFlags::smoke_box(12, 12);
        let problem = PoissonProblem::new(&flags, 1.0);
        let b = random_rhs(&flags, 3);
        let solver = PcgSolver::new(crate::ic0::MicPreconditioner::default(), 1e-8, 500);
        let (want, _) = solver.solve(&problem, &b);
        let clone = solver.clone();
        assert!(clone.operator.lock().unwrap().is_none());
        // The clone moving on to another geometry leaves the source's
        // operator where it was.
        let other = CellFlags::closed_box(9, 14);
        let _ = clone.solve(&PoissonProblem::new(&other, 1.0), &random_rhs(&other, 4));
        assert!(solver
            .operator
            .lock()
            .unwrap()
            .as_ref()
            .is_some_and(|op| op.flags == flags));
        assert_eq!(solver.solve(&problem, &b).0, want);
    }

    #[test]
    fn cg_solves_open_box() {
        let flags = CellFlags::smoke_box(16, 16);
        let problem = PoissonProblem::new(&flags, 1.0);
        let b = random_rhs(&flags, 3);
        let solver = CgSolver::plain(1e-8, 2000);
        let (x, stats) = solver.solve(&problem, &b);
        assert!(stats.converged, "stats: {stats:?}");
        let mut r = Field2::new(16, 16);
        problem.residual(&x, &b, &mut r);
        assert!(problem.norm(&r) / problem.norm(&b) < 1e-7);
    }

    #[test]
    fn cg_handles_compatible_singular_system() {
        // Closed box: A is semi-definite; make b compatible by removing
        // the mean over fluid cells.
        let flags = CellFlags::closed_box(12, 12);
        let problem = PoissonProblem::new(&flags, 1.0);
        let mut b = random_rhs(&flags, 11);
        let nf = flags.fluid_count() as f64;
        let mut mean = 0.0;
        for j in 0..12 {
            for i in 0..12 {
                if flags.is_fluid(i, j) {
                    mean += b.at(i, j);
                }
            }
        }
        mean /= nf;
        for j in 0..12 {
            for i in 0..12 {
                if flags.is_fluid(i, j) {
                    let v = b.at(i, j) - mean;
                    b.set(i, j, v);
                }
            }
        }
        let solver = CgSolver::plain(1e-7, 4000);
        let (x, stats) = solver.solve(&problem, &b);
        assert!(stats.converged, "stats: {stats:?}");
        let mut r = Field2::new(12, 12);
        problem.residual(&x, &b, &mut r);
        assert!(problem.norm(&r) / problem.norm(&b) < 1e-6);
    }

    #[test]
    fn zero_rhs_is_trivial() {
        let flags = CellFlags::smoke_box(8, 8);
        let problem = PoissonProblem::new(&flags, 1.0);
        let b = Field2::new(8, 8);
        let solver = CgSolver::plain(1e-8, 100);
        let (x, stats) = solver.solve(&problem, &b);
        assert_eq!(stats.iterations, 0);
        assert!(stats.converged);
        assert_eq!(x.max_abs(), 0.0);
    }

    #[test]
    fn solution_zero_on_non_fluid_cells() {
        let mut flags = CellFlags::smoke_box(10, 10);
        flags.add_solid_disc(5.0, 5.0, 2.0);
        let problem = PoissonProblem::new(&flags, 1.0);
        let b = random_rhs(&flags, 5);
        let solver = CgSolver::plain(1e-8, 2000);
        let (x, _) = solver.solve(&problem, &b);
        for j in 0..10 {
            for i in 0..10 {
                if !flags.is_fluid(i, j) {
                    assert_eq!(x.at(i, j), 0.0);
                }
            }
        }
    }

    #[test]
    fn iteration_budget_respected() {
        let flags = CellFlags::smoke_box(32, 32);
        let problem = PoissonProblem::new(&flags, 1.0);
        let b = random_rhs(&flags, 17);
        let solver = CgSolver::plain(1e-14, 3);
        let (_, stats) = solver.solve(&problem, &b);
        assert_eq!(stats.iterations, 3);
        assert!(!stats.converged);
        assert!(stats.flops > 0);
    }

    #[test]
    fn respects_dx_scaling() {
        // Solving with dx=0.5 scales A by 4; solution scales by 1/4
        // relative to dx=1 for the same rhs.
        let flags = CellFlags::smoke_box(8, 8);
        let b = random_rhs(&flags, 23);
        let p1 = PoissonProblem::new(&flags, 1.0);
        let p2 = PoissonProblem::new(&flags, 0.5);
        let solver = CgSolver::plain(1e-10, 2000);
        let (x1, _) = solver.solve(&p1, &b);
        let (x2, _) = solver.solve(&p2, &b);
        for (a, b) in x1.data().iter().zip(x2.data()) {
            assert!((a * 0.25 - b).abs() < 1e-7, "{a} vs {b}");
        }
    }
}
