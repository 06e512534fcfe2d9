//! The unsupervised DivNorm training objective (Eq. 5).
//!
//! Applying a predicted pressure `p̂` to the tentative velocity gives
//! `u_{n+1} = u* − (Δt/ρ)∇p̂`, whose divergence is
//!
//! ```text
//! r = ∇·u_{n+1} = ∇·u* − (Δt/ρ)·∇²p̂ = d + Δt·(A p̂)
//! ```
//!
//! with `A` the positive-definite projection operator (`A = −∇²` with
//! the domain's boundary conditions) and `ρ = 1`. The loss is the
//! weighted square norm `L = (1/N) Σ_i w_i r_i²` over fluid cells, and
//! because `A` is symmetric the gradient w.r.t. `p̂` is
//! `∇L = (2Δt/N)·A(w ⊙ r)`.
//!
//! This is exactly Tompson et al.'s objective that the paper adopts —
//! training never needs ground-truth pressures.

use sfn_grid::{CellFlags, Field2};
use sfn_solver::PoissonProblem;

/// Computes the DivNorm loss and its gradient with respect to `p̂`.
///
/// * `pressure` — predicted pressure `p̂` (values on non-fluid cells are
///   ignored and receive zero gradient);
/// * `divergence` — `∇·u*` before projection;
/// * `weights` — the Eq. 5 weight field `w = max(1, k − d)`;
/// * `dt` — simulation time step (with `ρ = 1`, `dx = 1`).
///
/// Returns `(loss, grad)` where the loss is normalised by the fluid
/// cell count.
pub fn divnorm_loss_and_grad(
    pressure: &Field2,
    divergence: &Field2,
    weights: &Field2,
    flags: &CellFlags,
    dx: f64,
    dt: f64,
) -> (f64, Field2) {
    let (nx, ny) = (flags.nx(), flags.ny());
    assert_eq!((pressure.w(), pressure.h()), (nx, ny), "pressure shape");
    assert_eq!((divergence.w(), divergence.h()), (nx, ny), "divergence shape");
    assert_eq!((weights.w(), weights.h()), (nx, ny), "weights shape");
    let problem = PoissonProblem::new(flags, dx);
    let n_fluid = problem.unknowns().max(1) as f64;

    // r = d + dt·(A p̂) on fluid cells.
    let mut ap = Field2::new(nx, ny);
    problem.apply(pressure, &mut ap);
    let mut residual = Field2::new(nx, ny);
    let mut loss = 0.0f64;
    for j in 0..ny {
        for i in 0..nx {
            if flags.is_fluid(i, j) {
                let r = divergence.at(i, j) + dt * ap.at(i, j);
                residual.set(i, j, r);
                loss += weights.at(i, j) * r * r;
            }
        }
    }
    loss /= n_fluid;

    // grad = (2·dt/N)·A(w ⊙ r).
    let mut wr = Field2::new(nx, ny);
    for j in 0..ny {
        for i in 0..nx {
            if flags.is_fluid(i, j) {
                wr.set(i, j, weights.at(i, j) * residual.at(i, j));
            }
        }
    }
    let mut grad = Field2::new(nx, ny);
    problem.apply(&wr, &mut grad);
    grad.scale(2.0 * dt / n_fluid);
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_grid::{distance::divnorm_weights, CellFlags, MacGrid};
    use sfn_solver::{divergence_rhs, MicPreconditioner, PcgSolver, PoissonSolver};

    fn setup(n: usize) -> (CellFlags, Field2, Field2) {
        let flags = CellFlags::smoke_box(n, n);
        let weights = divnorm_weights(&flags, 3.0);
        let mut vel = MacGrid::new(n, n, 1.0);
        for j in 0..n {
            for i in 0..=n {
                vel.u.set(i, j, ((i * 7 + j * 3) % 5) as f64 / 3.0 - 0.5);
            }
        }
        vel.enforce_solid_boundaries(&flags);
        let div = vel.divergence(&flags);
        (flags, weights, div)
    }

    #[test]
    fn exact_pressure_zeroes_the_loss() {
        let n = 16;
        let (flags, weights, div) = setup(n);
        let dt = 0.5;
        let problem = PoissonProblem::new(&flags, 1.0);
        let b = divergence_rhs(&div, &flags, dt);
        let solver = PcgSolver::new(MicPreconditioner::default(), 1e-11, 20_000);
        let (p_exact, _) = solver.solve(&problem, &b);
        let (loss, grad) = divnorm_loss_and_grad(&p_exact, &div, &weights, &flags, 1.0, dt);
        assert!(loss < 1e-12, "loss {loss}");
        assert!(grad.max_abs() < 1e-6, "grad {}", grad.max_abs());
    }

    #[test]
    fn exact_projector_solves_a_generated_sample() {
        use crate::dataset::ProjectionDataset;
        use sfn_sim::{ExactProjector, PressureProjector};
        let ds = ProjectionDataset::generate(&sfn_workload::ProblemSet::training(16, 1), 3, 1);
        let s = &ds.samples[1];
        let flags = &ds.geometries[s.geometry];
        let solver = PcgSolver::new(MicPreconditioner::default(), 1e-7, 50_000);
        let p = ExactProjector::new(solver).solve_pressure(&s.divergence, flags, ds.dx, ds.dt).pressure;
        let w = &ds.weights[s.geometry];
        let (loss, _) = divnorm_loss_and_grad(&p, &s.divergence, w, flags, ds.dx, ds.dt);
        assert!(loss < 1e-9, "exact pressure loss {loss}");
    }

    #[test]
    fn zero_pressure_gives_raw_divnorm() {
        let n = 12;
        let (flags, weights, div) = setup(n);
        let p = Field2::new(n, n);
        let (loss, _) = divnorm_loss_and_grad(&p, &div, &weights, &flags, 1.0, 0.5);
        let mut manual = 0.0;
        for j in 0..n {
            for i in 0..n {
                if flags.is_fluid(i, j) {
                    manual += weights.at(i, j) * div.at(i, j) * div.at(i, j);
                }
            }
        }
        manual /= flags.fluid_count() as f64;
        assert!((loss - manual).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let n = 8;
        let (flags, weights, div) = setup(n);
        let dt = 0.5;
        let mut p = Field2::from_fn(n, n, |i, j| ((i * 3 + j * 5) % 7) as f64 * 0.05);
        let (_, grad) = divnorm_loss_and_grad(&p, &div, &weights, &flags, 1.0, dt);
        let eps = 1e-6;
        for &(i, j) in &[(2usize, 2usize), (4, 5), (6, 3), (1, 6)] {
            if !flags.is_fluid(i, j) {
                continue;
            }
            let orig = p.at(i, j);
            p.set(i, j, orig + eps);
            let (lp, _) = divnorm_loss_and_grad(&p, &div, &weights, &flags, 1.0, dt);
            p.set(i, j, orig - eps);
            let (lm, _) = divnorm_loss_and_grad(&p, &div, &weights, &flags, 1.0, dt);
            p.set(i, j, orig);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad.at(i, j)).abs() < 1e-6 * fd.abs().max(1.0),
                "({i},{j}): fd {fd} vs {}",
                grad.at(i, j)
            );
        }
    }

    #[test]
    fn gradient_descent_on_pressure_reduces_loss() {
        let n = 12;
        let (flags, weights, div) = setup(n);
        let dt = 0.5;
        let mut p = Field2::new(n, n);
        let (mut prev, _) = divnorm_loss_and_grad(&p, &div, &weights, &flags, 1.0, dt);
        for _ in 0..200 {
            let (loss, grad) = divnorm_loss_and_grad(&p, &div, &weights, &flags, 1.0, dt);
            assert!(loss <= prev * 1.0001, "loss should not increase: {prev} -> {loss}");
            prev = loss;
            p.add_scaled(&grad, -0.02);
        }
        let (final_loss, _) = divnorm_loss_and_grad(&p, &div, &weights, &flags, 1.0, dt);
        assert!(final_loss < 0.2 * prev.max(1e-30) + 1e-12 || final_loss < prev);
    }

    #[test]
    fn solid_cells_get_zero_gradient() {
        let n = 10;
        let (flags, weights, div) = setup(n);
        let p = Field2::from_fn(n, n, |i, j| (i + j) as f64 * 0.1);
        let (_, grad) = divnorm_loss_and_grad(&p, &div, &weights, &flags, 1.0, 0.5);
        for j in 0..n {
            for i in 0..n {
                if !flags.is_fluid(i, j) {
                    assert_eq!(grad.at(i, j), 0.0, "({i},{j})");
                }
            }
        }
    }
}
