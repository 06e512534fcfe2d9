//! Runs every experiment in sequence — the one-command reproduction of
//! the paper's evaluation section. Set `SFN_QUICK=1` for a smoke run.
//!
//! Emits a machine-readable summary (per-figure wall time + status) to
//! `SFN_SUMMARY_FILE` (default `run_all_summary.json`) so CI and batch
//! sweeps can diff reproduction health without scraping stdout, and
//! closes with the `sfn-obs` per-stage report.
//!
//! Set `SFN_FAULTS` to a fault schedule (see the `sfn-faults` crate) to
//! run the whole reproduction under injected faults; the summary then
//! carries a `faults` section with injected/recovered counts.

use sfn_obs::json::{obj, ToJson, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Counting allocator so `SFN_PROF_ALLOC=1` attributes allocations to
/// whichever kernel scope is active. Pass-through (two relaxed loads)
/// when tracking is off.
#[global_allocator]
static ALLOC: sfn_prof::CountingAlloc = sfn_prof::CountingAlloc;

/// One experiment section's outcome, as written to the JSON summary.
struct FigureRecord {
    name: &'static str,
    secs: f64,
    status: &'static str,
}

/// Fault-injection and self-healing tallies, from the `sfn-faults`
/// counters (what was injected) and the `sfn-obs` runtime counters
/// (what the runtime did about it).
struct FaultsSummary {
    armed: bool,
    injected: u64,
    recovered: u64,
    rollbacks: u64,
    quarantines: u64,
    degraded: u64,
}

impl FaultsSummary {
    fn collect() -> Self {
        Self {
            armed: sfn_faults::active(),
            injected: sfn_faults::injected_count(),
            recovered: sfn_faults::recovered_count(),
            rollbacks: sfn_obs::counter_value("runtime.rollbacks"),
            quarantines: sfn_obs::counter_value("runtime.quarantines"),
            degraded: sfn_obs::counter_value("runtime.degraded"),
        }
    }
}

struct RunAllSummary {
    quick: bool,
    sweep_grids: Vec<usize>,
    steps: usize,
    figures: Vec<FigureRecord>,
    stages: Vec<sfn_obs::StageSummary>,
    faults: FaultsSummary,
    /// The `sfn-prof/kernels@1` document, when the run was profiled
    /// with `SFN_PROF=1`; `null` otherwise.
    kernel_summary: Option<sfn_prof::ProfileReport>,
    total_secs: f64,
}

impl ToJson for FigureRecord {
    fn to_json_value(&self) -> Value {
        obj([
            ("name", self.name.to_json_value()),
            ("secs", self.secs.to_json_value()),
            ("status", self.status.to_json_value()),
        ])
    }
}

sfn_obs::json_record!(FaultsSummary {
    armed: false,
    injected: 0,
    recovered: 0,
    rollbacks: 0,
    quarantines: 0,
    degraded: 0,
});

impl ToJson for RunAllSummary {
    fn to_json_value(&self) -> Value {
        obj([
            ("quick", self.quick.to_json_value()),
            ("sweep_grids", self.sweep_grids.to_json_value()),
            ("steps", self.steps.to_json_value()),
            ("figures", self.figures.to_json_value()),
            ("stages", self.stages.to_json_value()),
            ("faults", self.faults.to_json_value()),
            ("kernel_summary", self.kernel_summary.to_json_value()),
            ("total_secs", self.total_secs.to_json_value()),
        ])
    }
}

/// Times one experiment section, shielding the rest of the reproduction
/// from a panic inside it (a failed figure is recorded, not fatal).
fn section(records: &mut Vec<FigureRecord>, name: &'static str, f: impl FnOnce()) {
    let timer = sfn_obs::ScopedTimer::start("bench/run_all");
    let status = match catch_unwind(AssertUnwindSafe(f)) {
        Ok(()) => "ok",
        Err(_) => {
            println!("== {name} ==\nFAILED (panicked; see stderr)\n");
            "failed"
        }
    };
    let secs = timer.stop().as_secs_f64();
    sfn_obs::event(sfn_obs::Level::Info, "bench.figure")
        .field_str("figure", name)
        .field_f64("secs", secs)
        .field_str("status", status)
        .emit();
    records.push(FigureRecord { name, secs, status });
}

/// Exercises every instrumented kernel on small grids so a profiled run
/// (`SFN_PROF=1`) always reports the full roofline table — conv2d,
/// advect, forces, projection, cg, pcg and mic0 — even when the quick
/// experiment path happens to skip a solver.
fn exercise_kernels() {
    use sfn_grid::{CellFlags, Field2};
    use sfn_nn::layers::{Conv2d, Layer};
    use sfn_nn::Tensor;
    use sfn_rng::{rngs::StdRng, SeedableRng};
    use sfn_sim::{ExactProjector, SimConfig, Simulation};
    use sfn_solver::{CgSolver, MicPreconditioner, PcgSolver, PoissonProblem, PoissonSolver};

    // Pressure solves on a small box with an obstacle, one per solver.
    let mut flags = CellFlags::smoke_box(24, 18);
    flags.add_solid_disc(12.0, 9.0, 3.0);
    let problem = PoissonProblem::new(&flags, 1.0);
    let b = Field2::from_fn(24, 18, |i, j| {
        if flags.is_fluid(i, j) {
            ((i * 7 + j * 13) % 11) as f64 / 5.0 - 1.0
        } else {
            0.0
        }
    });
    let _ = CgSolver::plain(1e-8, 200).solve(&problem, &b);
    let _ = PcgSolver::new(MicPreconditioner::default(), 1e-8, 200).solve(&problem, &b);

    // Advection, body forces and projection via real smoke steps
    // (vorticity confinement on so both force kernels run).
    let mut cfg = SimConfig::plume(24);
    cfg.vorticity_epsilon = 0.1;
    let mut sim = Simulation::new(cfg, CellFlags::smoke_box(24, 24));
    let mut proj = ExactProjector::new(PcgSolver::new(MicPreconditioner::default(), 1e-8, 400));
    for _ in 0..3 {
        sim.step(&mut proj);
    }

    // One conv2d layer outside any surrogate.
    let mut rng = StdRng::seed_from_u64(7);
    let mut conv = Conv2d::new(1, 2, 3, false, &mut rng);
    let small = Tensor::from_fn(1, 1, 16, 16, |_, _, h, w| ((h * 16 + w) % 7) as f32 - 3.0);
    let _ = conv.forward(&small, false);
}

fn main() {
    sfn_obs::init();
    sfn_obs::enable_metrics(true);
    sfn_prof::init();
    // Always-on crash path: a panicking section dumps the flight
    // recorder's last events (default sfn_crash_report.jsonl, or
    // SFN_CRASH_FILE) even though `section` also catches the panic.
    sfn_obs::install_crash_handler();
    sfn_faults::init_from_env();
    // Live observability: `SFN_METRICS_ADDR=127.0.0.1:9900` exposes
    // /metrics, /healthz and /snapshot.json for the whole evaluation.
    let _metrics = sfn_metrics::serve_from_env();
    let total = sfn_obs::ScopedTimer::start("bench/total");
    let env = sfn_bench::bench_env();
    use sfn_bench::experiments as ex;

    println!("########## Smart-fluidnet evaluation reproduction ##########");
    println!(
        "offline: grid {}², {} eval problems, {} steps; sweep grids {:?}\n",
        env.offline.eval_grid, env.offline.eval_problems, env.steps, env.grids
    );

    let mut recs = Vec::new();
    if sfn_prof::enabled() {
        // Warm every kernel so the roofline table is complete no matter
        // what the quick path skips; also the data the CI profile gate
        // diffs against its committed baseline.
        section(&mut recs, "kernels", exercise_kernels);
    }
    section(&mut recs, "table1", || {
        println!("== Table 1 ==\n{}\n", ex::baseline::table1(&env).render());
    });
    section(&mut recs, "figure1", || {
        println!("== Figure 1 ==\n{}\n", ex::baseline::figure1(&env).render());
    });
    section(&mut recs, "figure3", || {
        println!("== Figure 3 ==\n{}\n", ex::construction::figure3(&env));
    });
    section(&mut recs, "figure5", || {
        println!(
            "== Figure 5 ==\n{}\n",
            ex::construction::figure5(&env, env.offline.mlp_steps).render()
        );
    });
    section(&mut recs, "figure6", || {
        let trace = ex::runtime_metric::trace_problem(&env, 0, env.steps);
        let (rp, rs, pairs) =
            ex::runtime_metric::correlations(&env, env.problems_per_grid.max(4), env.steps);
        println!(
            "== Figure 6 ==\n{}\nr_p = {rp:.2} (paper 0.61), r_s = {rs:.2} (paper 0.79), {pairs} pairs\n",
            trace.render()
        );
    });

    // The grid sweep feeds four renderings; compute it once, in its own
    // timed section, then render (a failed sweep skips its figures).
    let mut sweep = None;
    section(&mut recs, "sweep", || sweep = Some(ex::sweep::sweep(&env)));
    if let Some(sweep) = &sweep {
        section(&mut recs, "figure8", || {
            println!("== Figure 8 ==\n{}\n", sweep.render_figure8());
        });
        section(&mut recs, "figure9", || {
            println!("== Figure 9 ==\n{}\n", sweep.render_figure9());
        });
        section(&mut recs, "table2", || {
            println!("== Table 2 ==\n{}\n", sweep.render_table2());
        });
        section(&mut recs, "figure12", || {
            println!("== Figure 12 ==\n{}\n", sweep.render_figure12());
        });
    }

    let mut cand = None;
    section(&mut recs, "candidates", || {
        cand = Some(ex::candidates::candidate_runs(&env));
    });
    if let Some(cand) = &cand {
        section(&mut recs, "figure10", || {
            println!("== Figure 10 ==\n{}\n", cand.render_figure10());
        });
        section(&mut recs, "figure11", || {
            println!("== Figure 11 ==\n{}\n", cand.render_figure11());
        });
        section(&mut recs, "table3", || {
            println!("== Table 3 ==\n{}\n", cand.render_table3());
        });
    }

    section(&mut recs, "figure13", || {
        println!(
            "== Figure 13 ==\n{}\n",
            ex::sensitivity::figure13(&env, &[5, 10, 15, 20])
        );
    });
    section(&mut recs, "table4", || {
        let rows = ex::resources::table4(&env, 64);
        println!("== Table 4 ==\n{}\n", ex::resources::render_table4(&rows, 64));
    });
    section(&mut recs, "ablation_transformation", || {
        println!(
            "== Ablation: transformation parameters ==\n{}\n",
            ex::sensitivity::render_ablation(&ex::sensitivity::transformation_ablation(&env))
        );
    });
    section(&mut recs, "ablation_scheduler", || {
        println!(
            "== Ablation: scheduling policies ==\n{}\n",
            ex::sensitivity::scheduler_ablation(&env)
        );
    });
    section(&mut recs, "ablation_tolerance", || {
        println!(
            "== Ablation: tolerance band ==\n{}",
            ex::sensitivity::tolerance_ablation(&env, &[0.05, 0.15, 0.30, 0.60])
        );
    });
    let runs = env.table.counts();
    println!(
        "runs: computed {} PCG references, {} fixed-model and {} Smart runs; \
         {} read from {}, {} unreadable lines skipped\n",
        runs.references,
        runs.fixed,
        runs.smart,
        runs.logged,
        env.table.path().display(),
        runs.rejected
    );

    // Stop the run timer before collecting stages so bench/total's own
    // sample is part of the collected percentiles.
    let total_secs = total.stop().as_secs_f64();
    // Mirror the kernel totals into the trace (prof.calibration +
    // prof.kernel events, what `sfn-trace profile` reads) and embed the
    // `sfn-prof/kernels@1` document in the JSON summary.
    let kernel_summary = if sfn_prof::enabled() {
        sfn_prof::emit_summary();
        Some(sfn_prof::summary(total_secs))
    } else {
        None
    };
    // Mirror each stage row into the trace so `sfn-trace analyze` sees
    // the same percentiles as the JSON summary.
    let stages = sfn_obs::stage_summaries();
    for stage in &stages {
        stage.emit();
    }
    let summary = RunAllSummary {
        quick: sfn_bench::quick(),
        sweep_grids: env.grids.clone(),
        steps: env.steps,
        figures: recs,
        stages,
        faults: FaultsSummary::collect(),
        kernel_summary,
        total_secs,
    };
    if summary.faults.armed {
        println!(
            "faults: {} injected, {} recovered, {} rollbacks, {} quarantines, {} degraded",
            summary.faults.injected,
            summary.faults.recovered,
            summary.faults.rollbacks,
            summary.faults.quarantines,
            summary.faults.degraded
        );
    }
    let path =
        std::env::var("SFN_SUMMARY_FILE").unwrap_or_else(|_| "run_all_summary.json".into());
    match std::fs::write(&path, sfn_obs::json::to_json_string_pretty(&summary)) {
        Ok(()) => println!("\nwrote summary to {path}"),
        Err(e) => {
            sfn_obs::event(sfn_obs::Level::Warn, "bench.summary_write_failed")
                .field_str("path", &path)
                .field_str("error", &e.to_string())
                .emit();
        }
    }

    println!("\n{}", sfn_obs::render_report());
    sfn_obs::flush_trace();
    let failed = summary.figures.iter().filter(|r| r.status == "failed").count();
    if failed > 0 {
        eprintln!("{failed} section(s) failed");
        std::process::exit(1);
    }
}
