//! Benchmark harness regenerating every table and figure of the SC '19
//! evaluation (§2.3 and §7).
//!
//! Each experiment has a binary (`cargo run -p sfn-bench --release
//! --bin <name>`) that prints the same rows/series the paper reports,
//! plus the paper's own numbers for comparison. The one bench target,
//! `serve_load` (`cargo bench -p sfn-bench --bench serve_load`), sweeps
//! the server's saturation point; per-layer kernel timings live in the
//! repo benchmark (`benchmark/`, `BENCHMARK.json`), not here.
//!
//! Scale knobs (environment variables, all optional; README
//! "Environment" lists every knob the workspace reads):
//!
//! | variable | meaning | default (quick) |
//! |---|---|---|
//! | `SFN_QUICK` | `1` runs every experiment at seconds scale | off |
//! | `SFN_EVAL_PROBLEMS` | measurement problems of the offline stage | 8 (4) |
//! | `SFN_TRAIN_EPOCHS` | offline training epochs per root model | 30 (60) |
//! | `SFN_BENCH_PROBLEMS` | problems per *grid* in sweep experiments | 4 (2) |
//! | `SFN_BENCH_STEPS` | simulation steps per problem | 32 (16) |
//! | `SFN_BENCH_GRIDS` | comma-separated sweep grid sizes | `16,24,32,48,64` (`16,24`, fixed) |
//! | `SFN_SUMMARY_FILE` | `run_all`'s machine-readable summary path | `run_all_summary.json` |
//!
//! The paper's absolute numbers came from a Titan X GPU against a CPU
//! PCG at grids up to 1024²; ours come from one CPU at reduced scale.
//! Absolute magnitudes therefore differ by construction — the harness
//! reproduces the *shape*: who wins, roughly by how much, and where
//! the crossovers fall. See EXPERIMENTS.md for the side-by-side.

#![warn(missing_docs)]

pub mod env;
pub mod experiments;
pub mod runners;

pub use env::BenchEnv;

/// True when `SFN_QUICK=1`: experiments and the `serve_load` sweep run
/// at seconds scale.
pub fn quick() -> bool {
    sfn_obs::env::knob(&sfn_obs::env::process, "SFN_QUICK", sfn_obs::env::Flag(false)).0
}

/// The environment every experiment binary uses: quick (seconds-scale)
/// when `SFN_QUICK=1`, the standard scale otherwise.
pub fn bench_env() -> BenchEnv {
    if quick() {
        BenchEnv::quick()
    } else {
        BenchEnv::standard()
    }
}
