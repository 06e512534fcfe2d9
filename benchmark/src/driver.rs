//! What every workload has in common: the metric catalogue, the three
//! ways a workload is run (untraced, traced, and the short slice a
//! traced run re-runs in a child), and the result they produce.

use crate::trace::{self, Tracer};
use crate::util::{self, median, percentile, sorted, tail_percentile};
use std::cell::RefCell;
use std::time::Instant;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound,
    }
}

/// A per-layer metric: name and unit. It has no bound.
const fn layer(name: &'static str, unit: &'static str) -> (&'static str, &'static str) {
    (name, unit)
}

/// The end-to-end metrics, measured with tracing off. `BENCHMARK.json`
/// repeats this table; a unit test keeps the two equal.
///
/// The bounds are the widest the contract allows: on the calibration
/// machine (README) the two-thread workloads swing by up to 14% between
/// ten identical-code runs, `serve_mix`'s peak memory by 9%, and a
/// bound has to stay well above that spread.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("op_ms_p50", "ms", false, 0.25),
    e2e("op_ms_tail", "ms", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("cpu_ms_per_op", "ms", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.25),
];

/// The per-layer metrics of the traced pass; the layer is the crate's
/// directory name. A metric a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    layer("fluid-solver.pcg_solve_ms", "ms"),
    layer("fluid-solver.pcg_iters_per_step", "count"),
    layer("fluid-solver.mic0_ms_per_step", "ms"),
    layer("fluid-solver.mic0_calls_per_step", "count"),
    layer("fluid-solver.pcg_self_ms_per_step", "ms"),
    layer("fluid-solver.spmv_ms_per_step", "ms"),
    layer("fluid-solver.flops_per_step", "flop"),
    layer("fluid-solver.unconverged_steps", "count"),
    layer("surrogate.infer_ms", "ms"),
    layer("surrogate.infer_self_ms", "ms"),
    layer("nn.conv2d_ms_per_step", "ms"),
    layer("nn.conv2d_calls_per_step", "count"),
    layer("nn.gemm_ms_per_step", "ms"),
    layer("nn.flops_per_infer", "flop"),
    layer("nn.bytes_per_infer", "B"),
    layer("nn.gflops", "Gflop/s"),
    layer("nn.train_epoch_ms", "ms"),
    layer("nn.train_samples_per_s", "1/s"),
    layer("surrogate.dataset_gen_ms", "ms"),
    layer("surrogate.final_loss", "loss"),
    layer("fluid-sim.step_ms", "ms"),
    layer("fluid-sim.advect_scalar_ms", "ms"),
    layer("fluid-sim.advect_velocity_ms", "ms"),
    layer("fluid-sim.forces_ms", "ms"),
    layer("fluid-sim.divnorm_ms", "ms"),
    layer("fluid-sim.step_unaccounted_ms", "ms"),
    layer("fluid-grid.divergence_ms", "ms"),
    layer("fluid-grid.subtract_gradient_ms", "ms"),
    layer("fluid-grid.enforce_boundaries_ms", "ms"),
    layer("fluid-grid.max_speed_ms", "ms"),
    layer("runtime.setup_ms", "ms"),
    layer("runtime.run_ms", "ms"),
    layer("runtime.nn_proj_ms_per_op", "ms"),
    layer("runtime.restart_ms_per_op", "ms"),
    layer("runtime.overhead_ms_per_op", "ms"),
    layer("runtime.switches_per_op", "count"),
    layer("runtime.restart_rate", "ratio"),
    layer("runtime.rollbacks", "count"),
    layer("runtime.wasted_step_ratio", "ratio"),
    layer("quality.qloss_mean", "qloss"),
    layer("quality.qloss_p50", "qloss"),
    layer("quality.qloss_max", "qloss"),
    layer("quality.target_met_rate", "ratio"),
    layer("nn.model_load_ms", "ms"),
    layer("core.artifact_load_ms", "ms"),
    layer("core.artifact_bytes", "B"),
    layer("workload.problem_gen_ms", "ms"),
    layer("serve.connect_ms", "ms"),
    layer("serve.ttfb_ms", "ms"),
    layer("serve.server_ms", "ms"),
    layer("serve.front_ms", "ms"),
    layer("serve.parse_us", "us"),
    layer("serve.encode_us", "us"),
    layer("serve.steps_per_s", "1/s"),
    layer("serve.accepted", "count"),
    layer("serve.completed", "count"),
    layer("serve.refused", "count"),
    layer("serve.shed", "count"),
    layer("serve.failed", "count"),
    layer("serve.truncated", "count"),
    layer("par.threads", "count"),
    layer("par.spawn_us", "us"),
    layer("par.speedup", "ratio"),
    layer("trace.overhead_pct", "%"),
    layer("prof.dropped_records", "count"),
    layer("determinism.bit_identical", "bool"),
];

pub const WORKLOADS: &[&str] = &[
    "pcg_128",
    "tompson_128",
    "smart_64",
    "serve_mix",
    "train_24",
];

/// Untraced set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// A traced run measures this share of `--seconds` three times over
/// (untraced, traced, and in a one-thread child), so it ends in about
/// the same wall time as an untraced run.
const TRACE_FRACTION: f64 = 0.4;

pub type Values = Vec<(&'static str, f64)>;
/// The metrics of a child's result line, by name.
pub type Named = Vec<(String, f64)>;

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Internal: the timed pass only, no repeated set-up and no
    /// reference check; prints `op_ms_p50` alone.
    pub slice: bool,
    /// One set-up instead of three (`--smoke`).
    pub quick: bool,
}

/// One pass over the workload's operations.
#[derive(Default)]
pub struct PassOut {
    /// Latency of every timed operation, in order.
    pub op_ms: Vec<f64>,
    /// Operations whose own output check failed.
    pub failed: u64,
    /// Bit-exact digests of the outputs, compared between the untraced
    /// and the traced pass.
    pub digest: Vec<u64>,
    /// The first few outputs themselves: what the reference check
    /// compares, and the 1e-9 fallback of the determinism check.
    pub outputs: Vec<Vec<f64>>,
    /// What the pass itself measured of the layers (traced pass only).
    pub layers: Values,
    /// Lines for the report (traced pass only).
    pub notes: Vec<String>,
}

/// Whole-run checks made after the passes, against references.
#[derive(Default)]
pub struct Check {
    /// Each failing whole-run check counts as one failed operation.
    pub failed: u64,
    pub layers: Values,
    pub notes: Vec<String>,
}

pub trait Workload: Sized {
    /// Everything before the first timed operation: fixture load, input
    /// generation from the seed, server bind, and one warm-up operation.
    /// The number of operations is fixed by `seconds`, not measured.
    fn setup(seed: u64, seconds: f64) -> Result<Self, String>;
    fn pass(&self, tracer: Option<&RefCell<Tracer>>) -> PassOut;
    fn check(&self, out: &PassOut) -> Check;
    /// What set-up measured of the layers (load and generation times).
    fn setup_layers(&self) -> Values {
        Vec::new()
    }
    /// Lines for the human-readable report: sizes, loop type.
    fn describe(&self) -> Vec<String>;
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Values,
    pub report: Vec<String>,
}

pub fn run<W: Workload>(name: &str, opts: &Opts) -> Result<Outcome, String> {
    if opts.slice {
        let out = W::setup(opts.seed, opts.seconds)?.pass(None);
        return Ok(Outcome {
            attempted: out.op_ms.len() as u64,
            failed: out.failed,
            metrics: vec![("op_ms_p50", median(&out.op_ms))],
            report: Vec::new(),
        });
    }
    if opts.trace {
        traced::<W>(name, opts)
    } else {
        untraced::<W>(opts)
    }
}

fn environment() -> String {
    format!(
        "machine: nproc {}, SFN_THREADS {} -> {} threads, SFN_SIMD {} -> {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        std::env::var("SFN_THREADS").unwrap_or_else(|_| "unset".into()),
        sfn_par::thread_count(),
        std::env::var("SFN_SIMD").unwrap_or_else(|_| "unset".into()),
        sfn_par::simd::level().as_str(),
    )
}

fn untraced<W: Workload>(opts: &Opts) -> Result<Outcome, String> {
    let repeats = if opts.quick { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut w = None;
    for _ in 0..repeats {
        // The previous set-up is torn down first, outside the timing.
        drop(w.take());
        let t = Instant::now();
        w = Some(W::setup(opts.seed, opts.seconds)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let w = w.expect("at least one set-up");

    let cpu0 = util::process_cpu_seconds();
    let t = Instant::now();
    let out = w.pass(None);
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = util::process_cpu_seconds() - cpu0;
    // Before the reference check, whose solves are not the workload's.
    let peak_rss_mb = util::peak_rss_mb();
    let check = w.check(&out);

    let attempted = out.op_ms.len() as u64;
    let failed = out.failed + check.failed;
    let ops = sorted(&out.op_ms);
    let tail = tail_percentile(ops.len());
    let metrics = vec![
        ("setup_s", median(&setup_s)),
        ("op_ms_p50", percentile(&ops, 50.0)),
        ("op_ms_tail", percentile(&ops, tail)),
        (
            "ops_per_s",
            attempted.saturating_sub(failed) as f64 / wall_s,
        ),
        ("cpu_ms_per_op", cpu_s * 1e3 / attempted as f64),
        ("peak_rss_mb", peak_rss_mb),
    ];
    let mut report = w.describe();
    report.push(environment());
    report.push(format!(
        "timed phase: {attempted} ops in {wall_s:.3} s wall, {cpu_s:.2} s cpu; op_ms_tail is p{tail} of {attempted} samples; setup_s is the median of {repeats} set-ups {:?}",
        setup_s.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>(),
    ));
    report.extend(check.notes);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        report,
    })
}

/// Runs this program again as a child and waits for it. Returns its
/// standard output, and the metrics of its result line when it printed
/// one, exited with 0 and was correct.
pub fn run_child(args: &[&str], one_thread: bool) -> Result<(String, Option<Named>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(args);
    if one_thread {
        cmd.env("SFN_THREADS", "1");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let metrics = text
        .lines()
        .last()
        .and_then(|line| sfn_obs::json::parse(line).ok())
        .filter(|v| {
            out.status.success() && v.get("correct").and_then(|c| c.as_bool()) == Some(true)
        })
        .and_then(|v| {
            let metrics = v.get("metrics")?.as_obj()?.iter();
            Some(
                metrics
                    .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                    .collect(),
            )
        });
    Ok((text, metrics))
}

/// The `op_ms_p50` of the same slice in a child with `SFN_THREADS=1`.
fn one_thread_p50(name: &str, seed: u64, seconds: f64) -> Result<f64, String> {
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let args = [
        "--workload",
        name,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--slice",
    ];
    run_child(&args, true)?
        .1
        .and_then(|metrics| metrics.into_iter().find(|(k, _)| k == "op_ms_p50"))
        .map(|(_, v)| v)
        .ok_or_else(|| "the one-thread child printed no correct result".to_string())
}

/// Median cost in µs of a `map_range` fan-out that does no work.
fn spawn_us() -> f64 {
    let threads = sfn_par::thread_count();
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(sfn_par::map_range(threads, std::hint::black_box(|i| i)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

fn traced<W: Workload>(name: &str, opts: &Opts) -> Result<Outcome, String> {
    let seconds = opts.seconds * TRACE_FRACTION;
    let w = W::setup(opts.seed, seconds)?;
    let plain = w.pass(None);

    sfn_prof::reset();
    sfn_prof::set_enabled(true);
    let tracer = RefCell::new(Tracer::new(Instant::now()));
    let traced = w.pass(Some(&tracer));
    sfn_prof::set_enabled(false);
    let dropped = sfn_prof::dropped_records();
    let tracer = tracer.into_inner();
    let check = w.check(&traced);

    let p50_plain = median(&plain.op_ms);
    let p50_traced = median(&traced.op_ms);
    let p50_one_thread = one_thread_p50(name, opts.seed, seconds)?;
    let bit_identical = plain.digest == traced.digest;
    let max_abs_diff = plain
        .outputs
        .iter()
        .flatten()
        .zip(traced.outputs.iter().flatten())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);

    let mut values: Values = w.setup_layers();
    values.extend(traced.layers.iter().copied());
    values.extend(check.layers.iter().copied());
    values.extend([
        ("par.threads", sfn_par::thread_count() as f64),
        ("par.spawn_us", spawn_us()),
        ("par.speedup", p50_one_thread / p50_plain),
        ("trace.overhead_pct", (p50_traced / p50_plain - 1.0) * 100.0),
        ("prof.dropped_records", dropped as f64),
        (
            "determinism.bit_identical",
            f64::from(u8::from(bit_identical)),
        ),
    ]);
    // Every per-layer metric is printed; one this workload does not
    // exercise reads 0.
    let metrics: Values = PER_LAYER
        .iter()
        .map(|&(name, _)| {
            (
                name,
                values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v),
            )
        })
        .collect();
    debug_assert!(values
        .iter()
        .all(|(n, _)| PER_LAYER.iter().any(|(name, _)| name == n)));

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace_{name}.json"));
    trace::write_json(&path, name, opts.seed, tracer.spans())
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let attempted = (plain.op_ms.len() + traced.op_ms.len()) as u64;
    let mut failed = plain.failed + traced.failed + check.failed;
    let mut report = w.describe();
    report.push(environment());
    report.push(format!(
        "two passes of {} ops: traced p50 {p50_traced:.4} ms against {p50_plain:.4} ms untraced and {p50_one_thread:.4} ms on one thread; {} spans -> {}",
        traced.op_ms.len(),
        tracer.spans().len(),
        path.display(),
    ));
    if !bit_identical {
        report.push(format!(
            "determinism: traced and untraced outputs differ in their bits; max abs difference of the kept outputs {max_abs_diff:e}"
        ));
        if max_abs_diff.is_nan() || max_abs_diff > 1e-9 {
            failed += 1;
        }
    }
    report.push(format!(
        "budget of {name} (mean per call):\n{}",
        trace::render_budget(&trace::budget(tracer.spans()))
    ));
    report.extend(traced.notes);
    report.extend(check.notes);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        report,
    })
}
