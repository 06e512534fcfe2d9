//! The repo benchmark. See `README.md` beside this package for what is
//! measured and why, and `../BENCHMARK.json` for the contract.
//!
//! ```text
//! sfn-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, JSON result on the last line
//! sfn-benchmark --seed <n> [--seconds <s>] [--trace] [--repeat <N>] [--smoke]   every workload, each in a child
//! sfn-benchmark gen-fixture [path]                                           rebuild the pinned roster
//! ```

mod driver;
mod fixture;
mod serve;
mod smart;
mod step;
mod trace;
mod train;
mod util;

use driver::{Metric, Named, Opts, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`, for runs that do not say.
const DEFAULT_SECONDS: f64 = 15.0;

struct Cli {
    workload: Option<String>,
    opts: Opts,
    repeat: usize,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        opts: Opts {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            slice: false,
            quick: false,
        },
        repeat: 1,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a name")?),
            "--seed" => {
                cli.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--repeat" => {
                cli.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            // The driver writes `--trace 0|1`; by hand, `--trace` alone.
            "--trace" => {
                cli.opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--slice" => cli.opts.slice = true,
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(cli.opts.seconds > 0.0 && cli.opts.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(cli)
}

fn run_workload(name: &str, opts: &Opts) -> Result<Outcome, String> {
    match name {
        "pcg_128" => driver::run::<step::Pcg128>(name, opts),
        "tompson_128" => driver::run::<step::Tompson128>(name, opts),
        "smart_64" => driver::run::<smart::Smart64>(name, opts),
        "serve_mix" => driver::run::<serve::ServeMix>(name, opts),
        "train_24" => driver::run::<train::Train24>(name, opts),
        other => Err(format!("unknown workload {other}; one of {WORKLOADS:?}")),
    }
}

fn unit_of(name: &str) -> &'static str {
    let end_to_end = END_TO_END.iter().map(|m| (m.name, m.unit));
    end_to_end
        .chain(PER_LAYER.iter().copied())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The one-line result the contract asks for. `{v:?}` prints a float
/// with every digit it has.
fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v)| {
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".into()
            };
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn one(name: &str, cli: &Cli) -> ExitCode {
    let mut opts = cli.opts.clone();
    if cli.smoke {
        // Same code paths, a twentieth of the operations, one set-up.
        opts.seconds /= 20.0;
        opts.quick = true;
    }
    let out = match run_workload(name, &opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::from(2);
        }
    };
    if !opts.slice {
        println!(
            "== {name}, seed {}, {} s{} ==",
            opts.seed,
            opts.seconds,
            if opts.trace { ", traced" } else { "" }
        );
        for line in &out.report {
            println!("{line}");
        }
        for (metric, v) in &out.metrics {
            println!("{metric:<36} {v:>16.6} {}", unit_of(metric));
        }
        println!(
            "fail_rate {} ({} failed of {} attempted)",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        );
        if cli.smoke {
            println!("smoke: numbers not comparable");
        }
    }
    println!("{}", result_line(&out));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload in a child of its own: its whole standard output, and
/// the metrics of its result line (`None` unless it was correct).
fn child(name: &str, cli: &Cli, trace: bool) -> Result<(String, Option<Named>), String> {
    let (seed, seconds) = (cli.opts.seed.to_string(), cli.opts.seconds.to_string());
    let trace = if trace { "1" } else { "0" };
    let mut args = vec![
        "--workload",
        name,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        trace,
    ];
    if cli.smoke {
        args.push("--smoke");
    }
    driver::run_child(&args, false)
}

/// Median, quartiles and the verdict against the bound: the spread
/// between the quartiles, as a share of the median, has to stay within
/// it (the rule the driver applies to ten seeds).
fn summarise(metric: &Metric, values: &[f64]) -> String {
    let median = util::median(values);
    if values.len() < 2 {
        return format!("{median:>14.5} {}", metric.unit);
    }
    let (q1, q3) = util::quartiles(values);
    let spread = (q3 - q1) / median.abs();
    format!(
        "{median:>14.5} {:<6} ({} is better) q1 {q1:<12.5} q3 {q3:<12.5} spread {:>6.2}% of bound {:>4.0}%  {}",
        metric.unit,
        if metric.higher { "higher" } else { "lower" },
        spread * 100.0,
        metric.bound * 100.0,
        if spread <= metric.bound { "pass" } else { "FAIL" }
    )
}

/// Every workload, each in a child process of its own so that peak
/// memory and set-up are the workload's, `repeat` rounds interleaved.
fn suite(cli: &Cli) -> ExitCode {
    let mut ok = true;
    let mut rounds: Vec<Vec<Option<Named>>> = Vec::new();
    for round in 0..cli.repeat {
        let mut this_round = Vec::new();
        for name in WORKLOADS {
            for trace in [false, true] {
                if trace && !cli.opts.trace {
                    continue;
                }
                match child(name, cli, trace) {
                    Ok((text, metrics)) => {
                        if cli.repeat == 1 || metrics.is_none() {
                            print!("{text}");
                        } else {
                            println!(
                                "round {} {name}{}: ok",
                                round + 1,
                                if trace { " traced" } else { "" }
                            );
                        }
                        ok &= metrics.is_some();
                        if !trace {
                            this_round.push(metrics);
                        }
                    }
                    Err(e) => {
                        eprintln!("{name}: {e}");
                        ok = false;
                    }
                }
            }
        }
        rounds.push(this_round);
    }
    if cli.repeat > 1 {
        println!("== {} rounds, seed {} ==", cli.repeat, cli.opts.seed);
        for (w, name) in WORKLOADS.iter().enumerate() {
            for metric in END_TO_END {
                let values: Vec<f64> = rounds
                    .iter()
                    .filter_map(|r| {
                        r.get(w)?
                            .as_ref()?
                            .iter()
                            .find(|(k, _)| k == metric.name)
                            .map(|(_, v)| *v)
                    })
                    .collect();
                if !values.is_empty() {
                    println!(
                        "{name:<12} {:<14} {}",
                        metric.name,
                        summarise(metric, &values)
                    );
                }
            }
        }
    }
    if cli.smoke {
        println!("smoke: numbers not comparable");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("gen-fixture") {
        return match fixture::generate(args.get(1).map(String::as_str)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gen-fixture: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        Some(name) => one(name, &cli),
        None => suite(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` repeats the catalogue; the driver reads the
    /// file, the program prints from the table.
    #[test]
    fn benchmark_json_names_what_the_program_prints() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let v = sfn_obs::json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let list = |key: &str| v.get(key).and_then(|l| l.as_arr()).expect(key).to_vec();
        let text = |m: &sfn_obs::json::Value, key: &str| {
            m.get(key).and_then(|s| s.as_str()).expect(key).to_string()
        };

        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            v.get("run_seconds").and_then(|s| s.as_f64()),
            Some(DEFAULT_SECONDS)
        );

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, ours) in e2e.iter().zip(END_TO_END) {
            assert_eq!(
                (text(m, "name").as_str(), text(m, "unit").as_str()),
                (ours.name, ours.unit)
            );
            assert_eq!(
                text(m, "better"),
                if ours.higher { "higher" } else { "lower" }
            );
            assert_eq!(m.get("bound").and_then(|b| b.as_f64()), Some(ours.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, ours) in layers.iter().zip(PER_LAYER) {
            assert_eq!((text(m, "name").as_str(), text(m, "unit").as_str()), *ours);
        }
    }

    #[test]
    fn trace_flag_takes_the_drivers_form_and_the_bare_one() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cli = parse(&args("--workload pcg_128 --seed 9 --seconds 10 --trace 0")).unwrap();
        assert_eq!(
            (
                cli.workload.as_deref(),
                cli.opts.seed,
                cli.opts.seconds,
                cli.opts.trace
            ),
            (Some("pcg_128"), 9, 10.0, false)
        );
        assert!(parse(&args("--trace 1 --seed 2")).unwrap().opts.trace);
        assert!(parse(&args("--seed 2 --trace")).unwrap().opts.trace);
        assert!(parse(&args("--smoke --seconds 20")).unwrap().smoke);
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--bogus")).is_err());
    }

    #[test]
    fn result_line_is_the_contracts_json() {
        let out = Outcome {
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s", 0.123456789), ("op_ms_p50", 2.0)],
            report: vec![],
        };
        let v = sfn_obs::json::parse(&result_line(&out)).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(10));
        let setup = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(
            setup.get("value").and_then(|x| x.as_f64()),
            Some(0.123456789)
        );
        assert_eq!(setup.get("unit").and_then(|x| x.as_str()), Some("s"));
    }
}
