//! Poisson solvers for the pressure-projection step (Algorithm 1,
//! lines 7–17 of the paper).
//!
//! The projection solves `−∇²p = b` on the fluid cells of a MAC grid,
//! with Neumann conditions at solid cells and Dirichlet `p = 0` at
//! empty (open-air) cells. The discrete operator is the standard
//! 5-point stencil, assembled matrix-free in [`laplace`].
//!
//! The one solver is [`pcg::PcgSolver`], (preconditioned) conjugate
//! gradients. With [`ic0::MicPreconditioner`] it is the paper's
//! reference method: "the pre-conditioner applied in mantaflow is the
//! Modified Incomplete Cholesky L0 preconditioner, called MICCG(0)".
//! With the identity preconditioner ([`pcg::CgSolver`]) it is plain CG,
//! the unpreconditioned oracle the MIC(0) tests check against.
//!
//! Every solve reports [`SolveStats`] including an analytic FLOP count
//! used by the Table 4 resource-usage reproduction.

#![warn(missing_docs)]

pub mod ic0;
pub mod laplace;
pub mod pcg;

use sfn_grid::{CellFlags, Field2};

pub use ic0::MicPreconditioner;
pub use laplace::PoissonProblem;
pub use pcg::{CgSolver, PcgSolver, Preconditioner};

/// Convergence statistics returned by every solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final relative residual `‖b − Ax‖₂ / ‖b‖₂` (1.0 if `‖b‖ = 0`
    /// conventionally treated as already converged with 0 iterations).
    pub rel_residual: f64,
    /// Whether the tolerance was met within the iteration budget.
    pub converged: bool,
    /// Analytic floating-point-operation count for the whole solve.
    pub flops: u64,
}

impl SolveStats {
    /// Stats for a trivially converged solve (zero right-hand side).
    pub fn trivial() -> Self {
        Self {
            iterations: 0,
            rel_residual: 0.0,
            converged: true,
            flops: 0,
        }
    }
}

/// A pressure-Poisson solver: given the problem geometry and right-hand
/// side, produce the pressure field.
///
/// Implementations must return `p = 0` on non-fluid cells.
pub trait PoissonSolver {
    /// Solves `A p = b` for the pressure `p`.
    fn solve(&self, problem: &PoissonProblem<'_>, b: &Field2) -> (Field2, SolveStats);

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// Records one Poisson solve into the shared observability layer:
/// per-solver iteration and residual metrics (counters + histograms)
/// plus a `solver.solve` trace event — the raw material of the
/// per-stage cost tables (Tables 3/4 of the paper).
///
/// Every [`PoissonSolver`] implementation calls this once per `solve`.
/// With observability disabled (the default) the cost is two relaxed
/// atomic loads.
pub fn observe_solve(solver: &str, stats: &SolveStats) {
    if sfn_obs::metrics_enabled() {
        sfn_obs::counter_add(&format!("solver.{solver}.solves"), 1);
        sfn_obs::counter_add(&format!("solver.{solver}.iterations"), stats.iterations as u64);
        sfn_obs::histogram_record(
            &format!("solver.{solver}.iterations"),
            stats.iterations as f64,
        );
        sfn_obs::histogram_record(
            &format!("solver.{solver}.rel_residual"),
            stats.rel_residual,
        );
    }
    sfn_obs::event(sfn_obs::Level::Trace, "solver.solve")
        .field_str("solver", solver)
        .field_u64("iterations", stats.iterations as u64)
        .field_f64("rel_residual", stats.rel_residual)
        .field_bool("converged", stats.converged)
        .field_u64("flops", stats.flops)
        .emit();
}

/// Builds the canonical right-hand side of the pressure equation from a
/// velocity divergence: `b = −(1/Δt) ∇·u*` (Algorithm 1 line 7,
/// rearranged for the positive-definite operator; see [`laplace`]).
pub fn divergence_rhs(divergence: &Field2, flags: &CellFlags, dt: f64) -> Field2 {
    assert!(dt > 0.0, "dt must be positive");
    Field2::from_fn(divergence.w(), divergence.h(), |i, j| {
        if flags.is_fluid(i, j) {
            -divergence.at(i, j) / dt
        } else {
            0.0
        }
    })
}
