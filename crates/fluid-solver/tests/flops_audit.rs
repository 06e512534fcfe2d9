//! Declared-vs-measured FLOP audit for the solver kernels.
//!
//! Every solver reports an analytic FLOP count in [`SolveStats`] and
//! records the same number into the `sfn_prof` kernel table. This test
//! re-derives the counts from first principles (ops actually executed
//! by the algorithm, counted by hand from the source) and requires the
//! declared model to agree within 5%.
//!
//! Regression context: the PCG iteration model used to charge
//! `2 dots + 3 axpys = 10n` vector flops per iteration while the loop
//! actually performs `2 dots + 2 axpys + 1 norm + 1 xpay = 12n`, and
//! the matrix-free stencil was charged 10n against the plan's exact 9n.
//!
//! Single test function: `sfn_prof` state is process-global and the
//! default harness runs `#[test]`s in parallel threads.

use sfn_grid::{CellFlags, Field2};
use sfn_solver::ic0::MicPreconditioner;
use sfn_solver::pcg::{CgSolver, PcgSolver};
use sfn_solver::{PoissonProblem, PoissonSolver};

fn random_rhs(flags: &CellFlags, seed: u64) -> Field2 {
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

fn kernel_totals(prefix: &str) -> sfn_prof::KernelTotals {
    let mut sum = sfn_prof::KernelTotals::default();
    for (name, t) in sfn_prof::snapshot() {
        if name.starts_with(prefix) {
            sum.calls += t.calls;
            sum.flops += t.flops;
            sum.bytes_read += t.bytes_read;
            sum.bytes_written += t.bytes_written;
        }
    }
    sum
}

fn assert_within_5pct(declared: u64, actual: u64, what: &str) {
    let diff = declared.abs_diff(actual) as f64;
    assert!(
        diff <= 0.05 * actual as f64,
        "{what}: declared {declared} vs actual {actual} ({:.1}% off)",
        100.0 * diff / actual as f64
    );
}

#[test]
fn declared_flops_match_measured_within_5pct() {
    let mut flags = CellFlags::smoke_box(64, 64);
    flags.add_solid_disc(32.0, 28.0, 7.0);
    let problem = PoissonProblem::new(&flags, 1.0 / 64.0);
    let n = problem.unknowns() as u64;
    let b = random_rhs(&flags, 13);

    // --- CG (identity preconditioner) -------------------------------
    sfn_prof::set_enabled(true);
    sfn_prof::reset();
    let (_, stats) = CgSolver::plain(1e-8, 10_000).solve(&problem, &b);
    let cg = kernel_totals("cg");
    sfn_prof::reset();
    assert!(stats.converged);
    let it = stats.iterations as u64;
    // Profiler sees exactly what the solver declared.
    assert_eq!(cg.flops, stats.flops);
    // Declared model: 4n setup (‖b‖ + initial dot) plus per-iteration
    // 9n stencil + 12n vector ops. Ground truth executes 2n dot + 2n
    // xpay fewer on the converging iteration.
    assert_eq!(stats.flops, 4 * n + it * 21 * n);
    let actual = 4 * n + it * 21 * n - 4 * n;
    assert_within_5pct(stats.flops, actual, "cg solve");

    // --- PCG with MIC(0) --------------------------------------------
    sfn_prof::reset();
    let (_, stats) = PcgSolver::new(MicPreconditioner::default(), 1e-8, 10_000).solve(&problem, &b);
    let pcg = kernel_totals("pcg");
    let mic = kernel_totals("mic0");
    let mic_build = kernel_totals("mic0.build");
    sfn_prof::reset();
    assert!(stats.converged);
    let it = stats.iterations as u64;
    assert_eq!(pcg.flops, stats.flops);
    // MIC(0) apply is 10n; setup adds the initial apply + 4n.
    assert_eq!(stats.flops, 14 * n + it * 31 * n);
    // The converging iteration skips the preconditioner apply, the
    // follow-up dot and the xpay: 14n less than the declared model.
    let actual = 14 * n + it * 31 * n - 14 * n;
    assert_within_5pct(stats.flops, actual, "pcg solve");
    // mic0's kernel entries: one 14n build under `mic0.build`, and under
    // `mic0` itself one 10n apply per performed application (initial +
    // each non-final iteration) — useful work only: the sweeps also
    // multiply by zero on the non-fluid cells, which is not claimed.
    let applies = it; // 1 initial + (it − 1) in-loop
    assert_eq!((mic_build.calls, mic_build.flops), (1, 14 * n));
    assert_eq!(mic.calls - mic_build.calls, applies);
    assert_eq!(mic.flops, 14 * n + applies * 10 * n);
    // Traffic per apply, over all cells: each sweep reads its source,
    // the diagonal and two links, plus the neighbour row of every
    // fourth row (the other neighbours are in registers), and writes z.
    let cells = 64 * 64;
    assert_eq!(
        mic.bytes_read - mic_build.bytes_read,
        applies * (8 * cells + cells / 2) * 8
    );
    assert_eq!(
        mic.bytes_written - mic_build.bytes_written,
        applies * 2 * cells * 8
    );
    sfn_prof::set_enabled(false);
}
