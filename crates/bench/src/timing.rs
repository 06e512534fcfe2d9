//! Dependency-free micro-benchmark harness (the Criterion replacement).
//!
//! Each `[[bench]]` target sets `harness = false` and drives this
//! module from a plain `fn main()`. The protocol per benchmark:
//! a warm-up phase (until [`WARMUP`] has elapsed), then timed
//! iterations until [`Suite::measure_secs`] has elapsed, recording one
//! wall-clock sample per iteration. The report is a table of
//! min / median / mean / p90 iteration times.
//!
//! Knobs (env):
//! * `SFN_BENCH_SECS`  — measurement time per benchmark (default 1.0;
//!   Criterion used 3.0).
//! * `SFN_QUICK=1`     — shrink warm-up and measurement for smoke runs.

use sfn_stats::TextTable;
use std::time::{Duration, Instant};

const WARMUP: Duration = Duration::from_millis(300);
const MAX_SAMPLES: usize = 10_000;

/// One benchmark's collected samples.
struct Row {
    id: String,
    samples: Vec<Duration>,
}

/// A named collection of benchmarks sharing one report.
pub struct Suite {
    name: String,
    measure_secs: f64,
    warmup: Duration,
    rows: Vec<Row>,
}

fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.0} ns", s * 1e9)
    }
}

impl Suite {
    /// A new suite; reads the env knobs once.
    pub fn new(name: &str) -> Self {
        let quick = crate::quick();
        let default_secs = if quick { 0.05 } else { 1.0 };
        Self {
            name: name.to_string(),
            measure_secs: crate::bench_secs(default_secs),
            warmup: if quick { Duration::from_millis(10) } else { WARMUP },
            rows: Vec::new(),
        }
    }

    /// Times `f` and records the samples under `id`.
    pub fn bench(&mut self, id: &str, mut f: impl FnMut()) {
        // Warm-up: populate caches, trigger lazy init, page in code.
        let start = Instant::now();
        while start.elapsed() < self.warmup {
            f();
        }
        let budget = Duration::from_secs_f64(self.measure_secs);
        let mut samples = Vec::new();
        let start = Instant::now();
        while start.elapsed() < budget && samples.len() < MAX_SAMPLES {
            let t = Instant::now();
            f();
            samples.push(t.elapsed());
        }
        self.record(id, samples);
    }

    /// Times `f` on a fresh `setup()` value per iteration (the
    /// `iter_batched` pattern: per-iteration state without timing the
    /// construction).
    pub fn bench_batched<S>(
        &mut self,
        id: &str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S),
    ) {
        let start = Instant::now();
        while start.elapsed() < self.warmup {
            f(setup());
        }
        let budget = Duration::from_secs_f64(self.measure_secs);
        let mut samples = Vec::new();
        let start = Instant::now();
        while start.elapsed() < budget && samples.len() < MAX_SAMPLES {
            let state = setup();
            let t = Instant::now();
            f(state);
            samples.push(t.elapsed());
        }
        self.record(id, samples);
    }

    fn record(&mut self, id: &str, samples: Vec<Duration>) {
        assert!(!samples.is_empty(), "benchmark `{id}` produced no samples");
        sfn_obs::event(sfn_obs::Level::Info, "bench.micro")
            .field_str("suite", &self.name)
            .field_str("bench", id)
            .field_u64("samples", samples.len() as u64)
            .field_f64(
                "mean_secs",
                samples.iter().map(Duration::as_secs_f64).sum::<f64>() / samples.len() as f64,
            )
            .emit();
        self.rows.push(Row { id: id.to_string(), samples });
    }

    /// Renders the report table and prints it. When `SFN_BENCH_JSON`
    /// names a file, also writes the machine-readable summary there —
    /// the `BENCH_*.json` perf-trajectory format.
    pub fn finish(self) {
        let name = self.name.clone();
        let summaries = self.summarize();
        let mut t = TextTable::new(["Benchmark", "Iters", "Min", "Median", "Mean", "P90"]);
        for s in &summaries {
            t.row([
                s.id.clone(),
                s.samples.to_string(),
                fmt_duration(Duration::from_secs_f64(s.min_secs)),
                fmt_duration(Duration::from_secs_f64(s.median_secs)),
                fmt_duration(Duration::from_secs_f64(s.mean_secs)),
                fmt_duration(Duration::from_secs_f64(s.p90_secs)),
            ]);
        }
        println!("== {name} ==\n{}", t.render());
        if let Ok(path) = std::env::var("SFN_BENCH_JSON") {
            let doc = render_json(&name, &summaries);
            match std::fs::write(&path, doc) {
                Ok(()) => println!("wrote benchmark summary to {path}"),
                Err(e) => eprintln!("cannot write {path}: {e}"),
            }
        }
    }

    fn summarize(self) -> Vec<BenchSummary> {
        self.rows
            .into_iter()
            .map(|mut row| {
                row.samples.sort_unstable();
                let n = row.samples.len();
                BenchSummary {
                    id: row.id,
                    samples: n,
                    min_secs: row.samples[0].as_secs_f64(),
                    median_secs: row.samples[n / 2].as_secs_f64(),
                    mean_secs: row.samples.iter().map(Duration::as_secs_f64).sum::<f64>()
                        / n as f64,
                    p90_secs: row.samples[(n * 9 / 10).min(n - 1)].as_secs_f64(),
                }
            })
            .collect()
    }
}

/// One benchmark's order statistics, as written to `BENCH_*.json`.
struct BenchSummary {
    id: String,
    samples: usize,
    min_secs: f64,
    median_secs: f64,
    mean_secs: f64,
    p90_secs: f64,
}

/// The `sfn-bench/micro@1` document: suite name plus per-benchmark
/// min/median/mean/p90 iteration times in seconds.
fn render_json(suite: &str, summaries: &[BenchSummary]) -> String {
    use sfn_obs::json;
    let mut s = String::from("{\"schema\":\"sfn-bench/micro@1\",\"suite\":\"");
    json::escape_into(&mut s, suite);
    s.push_str("\",\"benches\":[");
    for (i, b) in summaries.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n {\"id\":\"");
        json::escape_into(&mut s, &b.id);
        s.push_str("\",\"samples\":");
        s.push_str(&b.samples.to_string());
        s.push_str(",\"min_secs\":");
        json::push_f64(&mut s, b.min_secs);
        s.push_str(",\"median_secs\":");
        json::push_f64(&mut s, b.median_secs);
        s.push_str(",\"mean_secs\":");
        json::push_f64(&mut s, b.mean_secs);
        s.push_str(",\"p90_secs\":");
        json::push_f64(&mut s, b.p90_secs);
        s.push('}');
    }
    s.push_str("\n]}\n");
    s
}
