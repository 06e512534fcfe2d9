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

/// Durable-checkpoint tallies from the `sfn-ckpt` counters: what the
/// durability section wrote, recovered, and rejected as torn.
struct DurabilitySummary {
    writes: u64,
    recovers: u64,
    rejected: u64,
}

impl DurabilitySummary {
    fn collect() -> Self {
        Self {
            writes: sfn_obs::counter_value("ckpt.writes"),
            recovers: sfn_obs::counter_value("ckpt.recovers"),
            rejected: sfn_obs::counter_value("ckpt.rejected"),
        }
    }
}

/// One stage's latency distribution from the `sfn-obs` histograms —
/// the percentile companion to the scalar stage report.
struct StageQuantiles {
    name: String,
    calls: u64,
    total_secs: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
}

fn collect_stages() -> Vec<StageQuantiles> {
    sfn_obs::stage_percentiles()
        .into_iter()
        .map(|(name, h)| {
            let s = StageQuantiles {
                name,
                calls: h.count,
                total_secs: h.sum,
                p50_ms: 1e3 * h.p50,
                p90_ms: 1e3 * h.p90,
                p99_ms: 1e3 * h.p99,
            };
            // Mirror each row into the trace so `sfn-trace analyze`
            // sees the same percentiles as the JSON summary.
            sfn_obs::event(sfn_obs::Level::Info, "stage.summary")
                .field_str("stage", &s.name)
                .field_u64("calls", s.calls)
                .field_f64("total_secs", s.total_secs)
                .field_f64("p50_ms", s.p50_ms)
                .field_f64("p90_ms", s.p90_ms)
                .field_f64("p99_ms", s.p99_ms)
                .emit();
            s
        })
        .collect()
}

struct RunAllSummary {
    quick: bool,
    sweep_grids: Vec<usize>,
    steps: usize,
    figures: Vec<FigureRecord>,
    stages: Vec<StageQuantiles>,
    faults: FaultsSummary,
    ckpt: DurabilitySummary,
    /// The `sfn-prof/kernels@1` document (parsed), when the run was
    /// profiled with `SFN_PROF=1`; `null` otherwise.
    kernel_summary: Option<Value>,
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

impl ToJson for FaultsSummary {
    fn to_json_value(&self) -> Value {
        obj([
            ("armed", self.armed.to_json_value()),
            ("injected", self.injected.to_json_value()),
            ("recovered", self.recovered.to_json_value()),
            ("rollbacks", self.rollbacks.to_json_value()),
            ("quarantines", self.quarantines.to_json_value()),
            ("degraded", self.degraded.to_json_value()),
        ])
    }
}

impl ToJson for DurabilitySummary {
    fn to_json_value(&self) -> Value {
        obj([
            ("writes", self.writes.to_json_value()),
            ("recovers", self.recovers.to_json_value()),
            ("rejected", self.rejected.to_json_value()),
        ])
    }
}

impl ToJson for StageQuantiles {
    fn to_json_value(&self) -> Value {
        obj([
            ("name", self.name.to_json_value()),
            ("calls", self.calls.to_json_value()),
            ("total_secs", self.total_secs.to_json_value()),
            ("p50_ms", self.p50_ms.to_json_value()),
            ("p90_ms", self.p90_ms.to_json_value()),
            ("p99_ms", self.p99_ms.to_json_value()),
        ])
    }
}

impl ToJson for RunAllSummary {
    fn to_json_value(&self) -> Value {
        obj([
            ("quick", self.quick.to_json_value()),
            ("sweep_grids", self.sweep_grids.to_json_value()),
            ("steps", self.steps.to_json_value()),
            ("figures", self.figures.to_json_value()),
            ("stages", self.stages.to_json_value()),
            ("faults", self.faults.to_json_value()),
            ("ckpt", self.ckpt.to_json_value()),
            (
                "kernel_summary",
                self.kernel_summary.clone().unwrap_or(Value::Null),
            ),
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

/// Exercises the durable-checkpoint path end to end: writes a cadence
/// of checkpoints for a small smoke run, tears the newest file, then
/// proves recovery skips it (`ckpt.rejected`), falls back to the
/// previous valid checkpoint, and resumes bit-identically to an
/// uninterrupted run — the in-process companion to the kill−9
/// supervisor harness in `tests/crash_recovery.rs`.
fn exercise_durability() {
    use sfn_ckpt::{CheckpointDoc, TrackerState};
    use sfn_grid::CellFlags;
    use sfn_runtime::DurableCheckpointer;
    use sfn_sim::{ExactProjector, SimConfig, Simulation};
    use sfn_solver::{MicPreconditioner, PcgSolver};

    let dir = std::env::temp_dir().join(format!("sfn-run-all-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let projector = || {
        ExactProjector::labelled(PcgSolver::new(MicPreconditioner::default(), 1e-8, 400), "pcg")
    };
    let fresh = || Simulation::new(SimConfig::plume(16), CellFlags::smoke_box(16, 16));
    let tracker = TrackerState { series: Vec::new(), warmup_steps: 0, skip_per_interval: 0 };
    let seal = |sim: &Simulation| CheckpointDoc {
        step: 12,
        snapshot: sim.snapshot(),
        tracker: tracker.clone(),
        scheduler: None,
    };

    // Reference: 12 uninterrupted steps.
    let mut reference = fresh();
    let mut proj = projector();
    for _ in 0..12 {
        reference.step(&mut proj);
    }

    // Checkpointed run: durable write every 4 steps → files at 4, 8, 12.
    let mut ckpt = DurableCheckpointer::new(&dir, 4, 3).unwrap();
    let mut sim = fresh();
    let mut proj = projector();
    for step in 1..=12u64 {
        sim.step(&mut proj);
        if step % 4 == 0 && ckpt.due(step) {
            ckpt.write(&CheckpointDoc {
                step,
                snapshot: sim.snapshot(),
                tracker: tracker.clone(),
                scheduler: None,
            })
            .unwrap();
        }
    }

    // Tear the newest checkpoint in half — recovery must reject it and
    // settle on step 8.
    let store = sfn_ckpt::CheckpointStore::open(&dir).unwrap();
    let (_, newest) = store.list().unwrap().pop().unwrap();
    let bytes = std::fs::read(&newest).unwrap();
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

    let mut ckpt = DurableCheckpointer::new(&dir, 4, 3).unwrap();
    let rec = ckpt.recover().unwrap().expect("a valid fallback checkpoint");
    assert_eq!(rec.rejected.len(), 1, "exactly the torn file is rejected");
    assert_eq!(rec.doc.step, 8, "fallback is the previous valid checkpoint");

    // Resume from the fallback and finish; byte-identical final state.
    let mut resumed = fresh();
    resumed.restore(&rec.doc.snapshot).unwrap();
    let mut proj = projector();
    for _ in rec.doc.step..12 {
        resumed.step(&mut proj);
    }
    let (a, b) = (sfn_ckpt::encode(&seal(&reference)).unwrap(), sfn_ckpt::encode(&seal(&resumed)).unwrap());
    assert_eq!(a, b, "resumed run is bit-identical to the uninterrupted one");
    println!(
        "== Durability ==\ncheckpointed 3 / tore 1 / recovered from step {}; resume bit-identical ({} byte payload)\n",
        rec.doc.step,
        a.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
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
    section(&mut recs, "durability", exercise_durability);

    // Stop the run timer before collecting stages so bench/total's own
    // sample is part of the collected percentiles.
    let total_secs = total.stop().as_secs_f64();
    // Mirror the kernel totals into the trace (prof.calibration +
    // prof.kernel events, what `sfn-trace profile` reads) and embed the
    // `sfn-prof/kernels@1` document in the JSON summary.
    let kernel_summary = if sfn_prof::enabled() {
        sfn_prof::emit_summary();
        sfn_obs::json::parse(&sfn_prof::summary_json(total_secs)).ok()
    } else {
        None
    };
    let summary = RunAllSummary {
        quick: sfn_bench::quick(),
        sweep_grids: env.grids.clone(),
        steps: env.steps,
        figures: recs,
        stages: collect_stages(),
        faults: FaultsSummary::collect(),
        ckpt: DurabilitySummary::collect(),
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
