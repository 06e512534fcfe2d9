//! Zero-allocation guard for surrogate inference: the hot path does
//! only the work.
//!
//! With [`sfn_prof::CountingAlloc`] installed, every kernel scope
//! reports the heap allocations made while it was open. Once a
//! projector has compiled its plan for a geometry, a further solve on
//! that geometry may allocate the pressure field it returns and
//! nothing else, and [`Plan::run`] itself may not allocate at all.
//!
//! `harness = false`: the allocation counters are process-wide, so the
//! process must hold no thread but this one and the pool helpers it
//! waits for — libtest's own would count too.

use sfn_grid::{CellFlags, Field2};
use sfn_nn::plan::Plan;
use sfn_nn::Network;
use sfn_sim::PressureProjector;
use sfn_surrogate::{tompson_default, NeuralProjector};

#[global_allocator]
static ALLOC: sfn_prof::CountingAlloc = sfn_prof::CountingAlloc;

/// Heap allocations made by `f`, as its own kernel scope reports them.
fn allocations_of(name: &'static str, f: impl FnOnce()) -> u64 {
    let allocs = || {
        let totals = sfn_prof::snapshot().into_iter().find(|(k, _)| *k == name);
        totals.map_or(0, |(_, t)| t.allocs)
    };
    let before = allocs();
    {
        let _scope = sfn_prof::KernelScope::enter(name);
        f();
    }
    allocs() - before
}

/// The allocation counters are process-wide, and a pool helper starts
/// up on its own thread, in its own time — possibly inside a later
/// measurement. One fan-out with a seat per thread and a barrier in it
/// returns only once every helper is up and has recorded work.
fn all_helpers_take_part(threads: usize) {
    let barrier = std::sync::Barrier::new(threads);
    let _scope = sfn_prof::KernelScope::enter("guard.warm_up");
    sfn_par::map_range(threads, |_| {
        sfn_prof::record_work(0, 0, 0);
        barrier.wait();
    });
}

/// Warm inference allocates only the returned pressure.
fn main() {
    let saved = Network::from_spec(&tompson_default(), 3).expect("default spec builds").save();
    sfn_prof::set_enabled(true);
    sfn_prof::set_alloc_tracking(true);
    assert!(
        allocations_of("guard.probe", || drop(std::hint::black_box(vec![0u8; 64]))) >= 1,
        "the counting allocator must be live"
    );
    for grid in [64, 128] {
        let mut flags = CellFlags::smoke_box(grid, grid);
        flags.add_solid_disc(grid as f64 * 0.5, grid as f64 * 0.4, grid as f64 * 0.1);
        let div = Field2::from_fn(grid, grid, |i, j| ((i * 7 + j * 13) % 11) as f64 - 5.0);
        for threads in [1, 2] {
            sfn_par::with_threads(threads, || {
                let mut plan = Plan::new(&saved.spec, &saved.weights, (2, grid, grid)).unwrap();
                let mut proj = NeuralProjector::try_from_saved(&saved, "guard").unwrap();
                // Warm-up: compiles the projector's plan and lets the
                // profiler make its own table entries — none of them
                // inference's allocations.
                plan.run();
                let cold = proj.solve_pressure(&div, &flags, 1.0, 0.5).pressure;
                all_helpers_take_part(threads);

                let run = allocations_of("guard.plan_run", || plan.run());
                assert_eq!(run, 0, "Plan::run at {grid}², {threads} threads");
                let solve = allocations_of("guard.solve", || {
                    let warm = proj.solve_pressure(&div, &flags, 1.0, 0.5).pressure;
                    assert!(warm == cold, "same answer, warm or cold");
                });
                assert!(
                    solve <= 1,
                    "a warm solve at {grid}², {threads} threads made {solve} allocations; \
                     only the returned pressure may"
                );
            });
        }
    }
    sfn_prof::set_alloc_tracking(false);
    sfn_prof::set_enabled(false);
}
