//! Cross-crate integration: plain CG drives the simulation to
//! (numerically) the same answer as the MICCG(0) reference, MIC(0)
//! gets there in fewer iterations, and the projection abstraction
//! treats exact solvers and neural surrogates uniformly.

use smart_fluidnet::grid::{CellFlags, Field2};
use smart_fluidnet::sim::{quality_loss, ExactProjector, SimConfig, Simulation};
use smart_fluidnet::solver::{CgSolver, MicPreconditioner, PcgSolver};

const N: usize = 24;
const STEPS: usize = 12;

fn scenario() -> (SimConfig, CellFlags) {
    let cfg = SimConfig::plume(N);
    let mut flags = CellFlags::smoke_box(N, N);
    flags.add_solid_disc(N as f64 * 0.45, N as f64 * 0.55, 2.5);
    (cfg, flags)
}

fn run_with(projector: &mut dyn smart_fluidnet::sim::PressureProjector) -> Field2 {
    let (cfg, flags) = scenario();
    let mut sim = Simulation::new(cfg, flags);
    let stats = sim.run(STEPS, projector);
    assert!(sim.is_healthy());
    assert!(stats.iter().all(|s| s.converged), "{}", projector.name());
    sim.density().clone()
}

#[test]
fn all_exact_solvers_agree_on_the_simulation() {
    let reference = run_with(&mut ExactProjector::labelled(
        PcgSolver::new(MicPreconditioner::default(), 1e-9, 100_000),
        "pcg",
    ));
    let density = run_with(&mut ExactProjector::labelled(CgSolver::plain(1e-9, 100_000), "cg"));
    let q = quality_loss(&density, &reference);
    assert!(q < 1e-5, "cg diverged from MICCG(0) reference: Qloss {q}");
}

#[test]
fn pcg_is_the_cheapest_exact_backend_in_iterations() {
    use smart_fluidnet::solver::{divergence_rhs, PoissonProblem, PoissonSolver};
    let (cfg, flags) = scenario();
    // Take a mid-simulation divergence field as a realistic RHS.
    let mut sim = Simulation::new(cfg, flags.clone());
    sim.run(6, &mut smart_fluidnet::workload::reference_projector());
    let div = sim.velocity().divergence(&flags);
    let b = divergence_rhs(&div, &flags, cfg.dt);
    let problem = PoissonProblem::new(&flags, cfg.dx);

    let (_, s_pcg) = PcgSolver::new(MicPreconditioner::default(), 1e-7, 100_000).solve(&problem, &b);
    let (_, s_cg) = CgSolver::plain(1e-7, 100_000).solve(&problem, &b);
    assert!(s_pcg.converged && s_cg.converged);
    assert!(
        s_pcg.iterations < s_cg.iterations,
        "MICCG(0) {} vs CG {}",
        s_pcg.iterations,
        s_cg.iterations
    );
}

#[test]
fn untrained_surrogate_runs_but_scores_poorly() {
    use smart_fluidnet::nn::Network;
    use smart_fluidnet::surrogate::{yang_spec, NeuralProjector};
    let reference = run_with(&mut ExactProjector::labelled(
        PcgSolver::new(MicPreconditioner::default(), 1e-9, 100_000),
        "pcg",
    ));
    let net = Network::from_spec(&yang_spec(4), 99).unwrap();
    let nn_density = run_with(&mut NeuralProjector::new(net, "untrained"));
    let q = quality_loss(&nn_density, &reference);
    assert!(q.is_finite());
    assert!(
        q > 1e-4,
        "an untrained surrogate should not accidentally match PCG (q = {q})"
    );
}

#[test]
fn divergence_shrinks_with_solver_accuracy() {
    // Lower tolerance => lower post-projection DivNorm, monotonically.
    let (cfg, flags) = scenario();
    let mut last = f64::INFINITY;
    for tol in [1e-2, 1e-4, 1e-6] {
        let mut sim = Simulation::new(cfg, flags.clone());
        let mut proj =
            ExactProjector::labelled(PcgSolver::new(MicPreconditioner::default(), tol, 100_000), "pcg");
        let stats = sim.run(STEPS, &mut proj);
        let dn: f64 = stats.iter().map(|s| s.div_norm).sum();
        assert!(
            dn < last,
            "tolerance {tol} did not reduce cumulative DivNorm: {dn} !< {last}"
        );
        last = dn;
    }
}
