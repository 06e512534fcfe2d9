//! Zero-allocation guard for the exact solve: the hot path does only
//! the work.
//!
//! With [`sfn_prof::CountingAlloc`] installed, every kernel scope
//! reports the heap allocations made while it was open. Once a
//! `PcgSolver` has prepared its operator for a geometry, a further
//! solve on that geometry may allocate the pressure field it returns
//! and nothing else, and a MIC(0) application may not allocate at all.
//!
//! `harness = false`: the allocation counters are process-wide, so the
//! process must hold no thread but this one and the pool helpers it
//! waits for — libtest's own would count too.

use sfn_grid::{CellFlags, Field2};
use sfn_solver::{MicPreconditioner, PcgSolver, PoissonProblem, PoissonSolver};

#[global_allocator]
static ALLOC: sfn_prof::CountingAlloc = sfn_prof::CountingAlloc;

/// `(calls, allocations)` recorded so far under exactly `name`.
fn kernel(name: &str) -> (u64, u64) {
    let totals = sfn_prof::snapshot().into_iter().find(|(k, _)| *k == name);
    totals.map_or((0, 0), |(_, t)| (t.calls, t.allocs))
}

/// The allocation counters are process-wide, and a pool helper starts
/// up on its own thread, in its own time — possibly inside the measured
/// solve. One fan-out with a seat per thread and a barrier in it
/// returns only once every helper is up and has recorded work.
fn all_helpers_take_part() {
    let threads = sfn_par::thread_count();
    let barrier = std::sync::Barrier::new(threads);
    let _scope = sfn_prof::KernelScope::enter("guard.warm_up");
    sfn_par::map_range(threads, |_| {
        sfn_prof::record_work(0, 0, 0);
        barrier.wait();
    });
}

/// A warm solve allocates only the returned pressure.
fn main() {
    let mut flags = CellFlags::smoke_box(64, 64);
    flags.add_solid_disc(32.0, 28.0, 7.0);
    let problem = PoissonProblem::new(&flags, 1.0 / 64.0);
    let b = Field2::from_fn(64, 64, |i, j| ((i * 7 + j * 13) % 11) as f64 - 5.0);
    let solver = PcgSolver::new(MicPreconditioner::default(), 1e-8, 10_000);

    sfn_prof::set_enabled(true);
    sfn_prof::set_alloc_tracking(true);
    // Warm-up: prepares the operator (and lets the profiler make its
    // own table entries, which are not the solver's allocations).
    let (_, cold) = solver.solve(&problem, &b);
    assert!(cold.converged && cold.iterations > 10);
    assert!(kernel("pcg").1 > 1, "the counting allocator must be live");
    all_helpers_take_part();
    const KERNELS: [&str; 3] = ["pcg", "mic0", "mic0.build"];
    let before = KERNELS.map(kernel);
    let (_, warm) = solver.solve(&problem, &b);
    let after = KERNELS.map(kernel);
    sfn_prof::set_alloc_tracking(false);
    sfn_prof::set_enabled(false);

    assert_eq!(warm, cold, "same answer, warm or cold");
    let [pcg, mic0, build] =
        [0, 1, 2].map(|k| (after[k].0 - before[k].0, after[k].1 - before[k].1));
    assert_eq!(
        build,
        (0, 0),
        "unchanged geometry: the factor is not rebuilt"
    );
    assert_eq!(
        mic0,
        (warm.iterations as u64, 0),
        "one apply per iteration, none allocating"
    );
    assert_eq!(pcg.0, 1);
    assert!(
        pcg.1 <= 1,
        "a warm solve made {} allocations; only the returned pressure may",
        pcg.1
    );
}
