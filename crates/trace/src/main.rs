//! The `sfn-trace` CLI: analyze / audit / export / profile / flame /
//! diff over `SFN_TRACE_FILE` JSONL traces.
//!
//! ```text
//! sfn-trace analyze <trace.jsonl> [--json] [-o FILE]
//! sfn-trace audit   <trace.jsonl> [--json]
//! sfn-trace export  <trace.jsonl> [-o FILE]       # Chrome trace JSON
//! sfn-trace profile <trace|kernels.json> [--json] [-o FILE]
//! sfn-trace flame   <trace.jsonl> [--speedscope] [-o FILE]
//! sfn-trace diff    <baseline> <current> [--json]
//!           [--latency-ratio R] [--latency-floor-ms MS]
//!           [--share-abs S] [--max-contradictions N]
//!           [--kernel-ratio R] [--kernel-floor-ms MS]
//! sfn-trace top     [ADDR] [--once] [--interval-ms MS]
//! ```
//!
//! `diff` inputs may each be a raw JSONL trace or a summary produced by
//! `analyze --json` (auto-detected); `profile` accepts a raw trace or a
//! saved `sfn-prof/kernels@1` document. Exit codes: 0 ok, 1 audit/diff
//! found problems, 2 usage or I/O error.

use sfn_prof::ProfileReport;
use sfn_trace::{analyze, audit, diff, export_chrome, Analysis, Thresholds};
use std::process::ExitCode;

const USAGE: &str = "usage: sfn-trace <analyze|audit|export|profile|flame|diff|top> <trace...> [options]
  analyze <trace.jsonl> [--json] [-o FILE]   run report (latency, shares, faults)
  audit   <trace.jsonl> [--json]             replay scheduler decisions (exit 1 on contradictions)
  export  <trace.jsonl> [-o FILE]            Chrome trace-event JSON (chrome://tracing, Perfetto)
  profile <trace|kernels.json> [--json] [-o FILE]
                                             per-kernel roofline table from sfn-prof records
  flame   <trace.jsonl> [--speedscope] [-o FILE]
                                             collapsed stacks (default) or speedscope JSON
  diff    <baseline> <current> [--json]      regression gate (exit 1 on regression)
          [--latency-ratio R] [--latency-floor-ms MS] [--share-abs S] [--max-contradictions N]
          [--kernel-ratio R] [--kernel-floor-ms MS]
  top     [ADDR] [--once] [--interval-ms MS] live dashboard over a running sfn-metrics
                                             endpoint (ADDR defaults to $SFN_METRICS_ADDR)";

fn fail(msg: &str) -> ExitCode {
    eprintln!("sfn-trace: {msg}");
    ExitCode::from(2)
}

/// Loads a saved document (`decode`) or, failing that, reduces a raw
/// JSONL trace with `reduce`; `what` names the document in errors.
fn load<T, E>(
    path: &str,
    what: &str,
    decode: fn(&str) -> Result<T, E>,
    reduce: fn(&sfn_trace::Trace) -> T,
) -> Result<T, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    if let Ok(doc) = decode(&text) {
        return Ok(doc);
    }
    let trace = sfn_trace::parse_trace(&text);
    if trace.events.is_empty() && !text.trim().is_empty() {
        return Err(format!("{path:?} is neither a {what} nor a parseable trace"));
    }
    Ok(reduce(&trace))
}

fn write_out(out: Option<&str>, content: &str) -> Result<(), String> {
    match out {
        Some(path) => std::fs::write(path, content).map_err(|e| format!("cannot write {path:?}: {e}")),
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

struct Opts {
    paths: Vec<String>,
    json: bool,
    speedscope: bool,
    once: bool,
    interval_ms: u64,
    out: Option<String>,
    thresholds: Thresholds,
}

fn num_arg(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<f64, String> {
    it.next()
        .ok_or_else(|| format!("{name} needs a value"))?
        .parse::<f64>()
        .map_err(|e| format!("bad {name} value: {e}"))
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        paths: Vec::new(),
        json: false,
        speedscope: false,
        once: false,
        interval_ms: 1000,
        out: None,
        thresholds: Thresholds::default(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--speedscope" => opts.speedscope = true,
            "--once" => opts.once = true,
            "--interval-ms" => {
                opts.interval_ms = num_arg(&mut it, "--interval-ms")?.max(50.0) as u64
            }
            "-o" | "--out" => {
                opts.out = Some(
                    it.next().ok_or_else(|| "-o needs a path".to_string())?.clone(),
                )
            }
            "--latency-ratio" => opts.thresholds.latency_ratio = num_arg(&mut it, "--latency-ratio")?,
            "--latency-floor-ms" => {
                opts.thresholds.latency_floor_ms = num_arg(&mut it, "--latency-floor-ms")?
            }
            "--share-abs" => opts.thresholds.share_abs = num_arg(&mut it, "--share-abs")?,
            "--max-contradictions" => {
                opts.thresholds.max_contradictions = num_arg(&mut it, "--max-contradictions")? as u64
            }
            "--kernel-ratio" => opts.thresholds.kernel_ratio = num_arg(&mut it, "--kernel-ratio")?,
            "--kernel-floor-ms" => {
                opts.thresholds.kernel_floor_ms = num_arg(&mut it, "--kernel-floor-ms")?
            }
            _ if a.starts_with('-') => return Err(format!("unknown option {a:?}")),
            _ => opts.paths.push(a.clone()),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };

    match cmd.as_str() {
        "analyze" => {
            let [path] = opts.paths.as_slice() else {
                return fail("analyze takes exactly one trace file");
            };
            let trace = match sfn_trace::load_trace(path) {
                Ok(t) => t,
                Err(e) => return fail(&format!("cannot read {path:?}: {e}")),
            };
            let a = analyze(&trace);
            let doc = if opts.json { a.to_json() + "\n" } else { a.render() };
            match write_out(opts.out.as_deref(), &doc) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(&e),
            }
        }
        "audit" => {
            let [path] = opts.paths.as_slice() else {
                return fail("audit takes exactly one trace file");
            };
            let trace = match sfn_trace::load_trace(path) {
                Ok(t) => t,
                Err(e) => return fail(&format!("cannot read {path:?}: {e}")),
            };
            let report = audit(&trace);
            if opts.json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.render());
            }
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        "export" => {
            let [path] = opts.paths.as_slice() else {
                return fail("export takes exactly one trace file");
            };
            let trace = match sfn_trace::load_trace(path) {
                Ok(t) => t,
                Err(e) => return fail(&format!("cannot read {path:?}: {e}")),
            };
            match write_out(opts.out.as_deref(), &export_chrome(&trace)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(&e),
            }
        }
        "profile" => {
            let [path] = opts.paths.as_slice() else {
                return fail("profile takes exactly one trace or kernel-summary file");
            };
            let report = match load(path, "kernel summary", ProfileReport::from_json, sfn_trace::profile::from_trace) {
                Ok(r) => r,
                Err(e) => return fail(&e),
            };
            let doc = if opts.json { report.to_json() + "\n" } else { report.render() };
            match write_out(opts.out.as_deref(), &doc) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(&e),
            }
        }
        "flame" => {
            let [path] = opts.paths.as_slice() else {
                return fail("flame takes exactly one trace file");
            };
            let trace = match sfn_trace::load_trace(path) {
                Ok(t) => t,
                Err(e) => return fail(&format!("cannot read {path:?}: {e}")),
            };
            let graph = sfn_trace::fold(&trace);
            let doc = if opts.speedscope { graph.speedscope() + "\n" } else { graph.collapsed() };
            match write_out(opts.out.as_deref(), &doc) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(&e),
            }
        }
        "diff" => {
            let [baseline, current] = opts.paths.as_slice() else {
                return fail("diff takes a baseline and a current file");
            };
            let b = match load(baseline, "summary", Analysis::from_json, analyze) {
                Ok(b) => b,
                Err(e) => return fail(&e),
            };
            let c = match load(current, "summary", Analysis::from_json, analyze) {
                Ok(c) => c,
                Err(e) => return fail(&e),
            };
            let verdict = diff(&b, &c, &opts.thresholds);
            if opts.json {
                println!("{}", verdict.to_json());
            } else {
                print!("{}", verdict.render());
            }
            if verdict.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        "top" => {
            let addr = match opts.paths.as_slice() {
                [] => std::env::var("SFN_METRICS_ADDR")
                    .ok()
                    .filter(|a| !a.trim().is_empty())
                    .unwrap_or_else(|| sfn_trace::top::DEFAULT_ADDR.to_string()),
                [addr] => addr.clone(),
                _ => return fail("top takes at most one endpoint address"),
            };
            let interval = std::time::Duration::from_millis(opts.interval_ms);
            match sfn_trace::top::run(addr.trim(), opts.once, interval) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(&e),
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
