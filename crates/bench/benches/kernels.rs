//! Per-kernel micro-benchmarks — the primitives `sfn-prof` accounts
//! for, timed in isolation: plain CG and body forces at a 64² working
//! size, the SIMD-dispatched kernels (MIC(0)-PCG, advect, conv2d) at
//! 64² and at 128², where the padded-pitch layouts start to matter,
//! whole surrogate inferences (`infer_tompson`, `plan_build`) and the
//! `sfn-par` fan-out cost.
//!
//! This suite seeds the committed `BENCH_000N.json` perf trajectory
//! (min/median/p90 per kernel) that the SIMD work is judged against:
//! run with `SFN_BENCH_JSON=BENCH_000N.json` to refresh the file after
//! an intentional perf change.

use sfn_bench::runners::representative_divergence;
use sfn_bench::timing::Suite;
use sfn_grid::Field2;
use sfn_nn::layers::{Conv2d, Layer};
use sfn_nn::plan::Plan;
use sfn_nn::{Network, Tensor};
use sfn_rng::{rngs::StdRng, SeedableRng};
use sfn_sim::{advect, forces, PressureProjector};
use sfn_solver::pcg::PreparedPreconditioner;
use sfn_solver::{
    CgSolver, MicPreconditioner, PcgSolver, PoissonProblem, PoissonSolver, Preconditioner,
};
use sfn_surrogate::{tompson_default, NeuralProjector};

fn main() {
    const GRID: usize = 64;
    let mut suite = Suite::new("kernels");
    let (flags, div) = representative_divergence(GRID);
    let problem = PoissonProblem::new(&flags, 1.0);
    let b = sfn_solver::divergence_rhs(&div, &flags, 0.5);

    // Unpreconditioned CG, the yardstick for MIC(0)-PCG below.
    let cg = CgSolver::plain(1e-6, 2_000);
    suite.bench(&format!("cg/{GRID}"), || {
        let _ = cg.solve(&problem, &b);
    });

    // Body forces on a representative velocity field.
    let mut vel = sfn_grid::MacGrid::new(GRID, GRID, 1.0);
    vel.enforce_solid_boundaries(&flags);
    suite.bench(&format!("forces/{GRID}"), || {
        forces::add_buoyancy(&mut vel, &div, &flags, 1.0, 0.5);
        forces::add_vorticity_confinement(&mut vel, &flags, 0.1, 0.5);
    });

    simd_kernels_at(&mut suite, GRID);
    simd_kernels_at(&mut suite, 128);
    inference(&mut suite);
    par_overhead(&mut suite);

    suite.finish();
}

/// MIC(0)-PCG the way a simulation sees it (`pcg_mic0`: one solver,
/// whose operator is prepared by the warm-up and reused by every timed
/// call), with a fresh solver per call (`pcg_mic0_cold`: the same solve
/// plus the stencil plan and the factorisation), and the two triangular
/// sweeps alone (`mic0_apply`).
fn mic0_benches(suite: &mut Suite, problem: &PoissonProblem<'_>, b: &Field2) {
    let grid = problem.nx();
    let new_solver = || PcgSolver::new(MicPreconditioner::default(), 1e-6, 2_000);
    let pcg = new_solver();
    suite.bench(&format!("pcg_mic0/{grid}"), || {
        let _ = pcg.solve(problem, b);
    });
    suite.bench_batched(&format!("pcg_mic0_cold/{grid}"), new_solver, |pcg| {
        let _ = pcg.solve(problem, b);
    });
    let factor = MicPreconditioner::default().prepare(problem);
    let mut z = Field2::new(grid, grid);
    suite.bench(&format!("mic0_apply/{grid}"), || {
        factor.apply(problem, b, &mut z);
    });
}

/// Surrogate inference the way a step sees it (`infer_tompson`: one
/// projector whose plan the warm-up compiled — pack, six convs, pool,
/// upsample, unpack), and what a geometry miss adds (`plan_build`).
fn inference(suite: &mut Suite) {
    let saved = Network::from_spec(&tompson_default(), 42).expect("default spec builds").save();
    for grid in [64, 128] {
        let (flags, div) = representative_divergence(grid);
        let mut nn = NeuralProjector::try_from_saved(&saved, "tompson").expect("own snapshot");
        suite.bench(&format!("infer_tompson/{grid}"), || {
            let _ = nn.solve_pressure(&div, &flags, 1.0, 0.5);
        });
    }
    suite.bench("plan_build/128", || {
        let _ = std::hint::black_box(Plan::new(&saved.spec, &saved.weights, (2, 128, 128)));
    });
}

/// Cost of an `sfn-par` fan-out: an empty one (pure hand-off), then a
/// streaming update over 1 k / 16 k / 256 k doubles fanned out vs. the
/// same chunks run inline — where the two cross is the grain below
/// which a kernel should not fan out.
fn par_overhead(suite: &mut Suite) {
    let threads = sfn_par::thread_count();
    suite.bench("par_overhead/empty", || {
        std::hint::black_box(sfn_par::map_range(threads, std::hint::black_box(|i| i)));
    });
    for n in [1usize << 10, 1 << 14, 1 << 18] {
        let mut data = vec![1.0f64; n];
        // At least 4 chunks per thread, at most 32 KiB each.
        let chunk = (n / (4 * threads)).clamp(1, 4096);
        let mut update = || {
            sfn_par::for_each_chunk_mut(&mut data, chunk, sfn_par::COARSE, |_, c| {
                for v in c.iter_mut() {
                    *v = *v * 0.999 + 0.001;
                }
            })
        };
        suite.bench(&format!("par_overhead/fanout/{}k", n >> 10), &mut update);
        suite.bench(&format!("par_overhead/inline/{}k", n >> 10), || {
            sfn_par::with_threads(1, &mut update)
        });
    }
}

/// The kernels the SIMD dispatch touches (and MIC(0)-PCG), at `grid`²:
/// at 128² the padded-pitch layouts start to pay off.
fn simd_kernels_at(suite: &mut Suite, grid: usize) {
    let (flags, div) = representative_divergence(grid);
    let problem = PoissonProblem::new(&flags, 1.0);
    let b = sfn_solver::divergence_rhs(&div, &flags, 0.5);

    mic0_benches(suite, &problem, &b);

    let vel = {
        let mut vel = sfn_grid::MacGrid::new(grid, grid, 1.0);
        vel.enforce_solid_boundaries(&flags);
        vel
    };
    suite.bench(&format!("advect/{grid}"), || {
        let _ = advect::advect_scalar(&vel, &div, &flags, 0.5);
    });
    suite.bench(&format!("advect_velocity/{grid}"), || {
        let _ = advect::advect_velocity(&vel, 0.5);
    });

    let mut rng = StdRng::seed_from_u64(42);
    let mut conv = Conv2d::new(4, 4, 3, false, &mut rng);
    let img = Tensor::from_fn(1, 4, grid, grid, |_, c, h, w| {
        ((c * 31 + h * 5 + w) % 13) as f32 / 6.0
    });
    suite.bench(&format!("conv2d/{grid}"), || {
        let _ = conv.forward(&img, false);
    });
}
