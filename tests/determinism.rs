//! The `SFN_THREADS` contract: a simulation's answers do not depend
//! on how many threads computed them. Every `sfn-par` kernel on the
//! step path (row-parallel advection, per-plane conv2d) writes each
//! output element from one index only, so the fields must agree bit
//! for bit — under the exact PCG projection and under a CNN surrogate
//! alike.

use smart_fluidnet::grid::CellFlags;
use smart_fluidnet::nn::Network;
use smart_fluidnet::sim::{ExactProjector, PressureProjector, SimConfig, Simulation};
use smart_fluidnet::solver::{MicPreconditioner, PcgSolver};
use smart_fluidnet::surrogate::{tompson_default, NeuralProjector};

/// Large enough that advection fans its rows out (and conv2d its
/// planes), small enough for a debug-profile test.
const GRID: usize = 96;
const STEPS: usize = 32;

/// Runs `STEPS` steps on `threads` threads around a disc of radius
/// `disc · GRID`, with one rollback on the way (a clone at the
/// half-way mark, four steps past it, back to the clone, on — the
/// runtime's rollback path); returns the raw bits of the final density and
/// velocity, plus each kept step's DivNorm bits.
fn run(threads: usize, disc: f64, projector: &mut dyn PressureProjector) -> Vec<u64> {
    sfn_par::with_threads(threads, || {
        let mut flags = CellFlags::smoke_box(GRID, GRID);
        flags.add_solid_disc(GRID as f64 * 0.5, GRID as f64 * 0.6, GRID as f64 * disc);
        let mut sim = Simulation::new(SimConfig::plume(GRID), flags);
        let mut stats = sim.run(STEPS / 2, projector);
        let anchor = sim.clone();
        sim.run(4, projector);
        sim = anchor;
        stats.extend(sim.run(STEPS / 2, projector));
        let mut bits: Vec<u64> = stats.iter().map(|s| s.div_norm.to_bits()).collect();
        assert!(sim.is_healthy());
        let vel = sim.velocity();
        for field in [sim.density(), &vel.u, &vel.v] {
            bits.extend(field.data().iter().map(|v| v.to_bits()));
        }
        bits
    })
}

// One test function: `with_threads` is process-global, so the sweeps
// must not interleave.
#[test]
fn steps_are_bit_identical_across_thread_counts() {
    let pcg = || ExactProjector::new(PcgSolver::new(MicPreconditioner::default(), 1e-6, 10_000));
    let cnn = || {
        let net = Network::from_spec(&tompson_default(), 3).expect("default spec builds");
        NeuralProjector::new(net, "tompson")
    };
    const DISCS: [f64; 2] = [0.08, 0.13];
    let reference = (
        DISCS.map(|disc| run(1, disc, &mut pcg())),
        run(1, DISCS[0], &mut cnn()),
    );
    for threads in [1, 2, 8] {
        // One projector carried from simulation to simulation: the
        // operator its solver keeps must not leak from one geometry
        // into the next, nor across the rollback inside each run.
        let mut kept = pcg();
        for d in [0, 1, 0] {
            assert!(
                run(threads, DISCS[d], &mut kept) == reference.0[d],
                "PCG run (disc {d}) differs on {threads} threads"
            );
        }
        assert!(
            run(threads, DISCS[0], &mut cnn()) == reference.1,
            "CNN run differs on {threads} threads"
        );
    }
}
