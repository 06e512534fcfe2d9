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
//! Every simulation the tables and figures compare is a query of one
//! [`runs::RunTable`], so experiments share runs and a killed `run_all`
//! resumes by run. The scale knobs (`SFN_QUICK`, `SFN_EVAL_PROBLEMS`,
//! `SFN_TRAIN_EPOCHS`, `SFN_BENCH_{GRIDS,PROBLEMS,STEPS}`,
//! `SFN_SUMMARY_FILE`) and their defaults are in README's
//! "Environment" table, the one list of every knob.
//!
//! The paper's absolute numbers came from a Titan X GPU against a CPU
//! PCG at grids up to 1024²; ours come from one CPU at reduced scale.
//! Absolute magnitudes therefore differ by construction — the harness
//! reproduces the *shape*: who wins, roughly by how much, and where
//! the crossovers fall. See EXPERIMENTS.md for the side-by-side.

#![warn(missing_docs)]

pub mod env;
pub mod experiments;
pub mod runs;

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
