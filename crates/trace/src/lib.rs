//! `sfn-trace` — the read side of the pipeline's observability.
//!
//! `sfn-obs` *writes* the `SFN_TRACE_FILE` JSONL event stream; this
//! crate reads it back and turns it into answers:
//!
//! * [`event`] — parses the stream into typed [`event::TraceEvent`]s
//!   (malformed lines are counted, never fatal: a crash can truncate
//!   the last record mid-write).
//! * [`analyze`] — reconstructs the run: per-stage latency percentiles,
//!   per-model time/step shares (the Table-3 analogue), scheduler
//!   action counts and fault-recovery latency from `fault.injected` to
//!   the resolving event.
//! * [`audit`] — replays every `scheduler.decision` against the
//!   Algorithm 2 rule and reports contradictions, so a scheduler bug
//!   shows up as a non-zero audit instead of a quietly wrong run.
//! * [`chrome`] — exports the timeline as Chrome trace-event JSON
//!   loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//! * [`diff`] — compares two runs (raw traces or saved summaries)
//!   against per-metric thresholds and emits a machine-readable
//!   regression verdict; CI runs this against a committed baseline.
//! * [`profile`] — reads `sfn-prof`'s `prof.kernel` records back into
//!   the `sfn_prof::ProfileReport` a saved `sfn-prof/kernels@1`
//!   document decodes to, whose roofline table (time share, GFLOP/s,
//!   GB/s, arithmetic intensity, allocations, compute-/memory-bound)
//!   `sfn-trace profile` prints.
//! * [`flame`] — folds per-invocation `prof.span` records into
//!   collapsed-stack text (flamegraph.pl input) and speedscope JSON.
//!
//! The `sfn-trace` binary wraps all of the above as subcommands.
//!
//! The JSONL comes back through [`sfn_obs::json`], the same hand-rolled
//! parser that the fault-injection config uses, and each document is
//! decoded with the type its writer owns: `sfn_obs::StageSummary`,
//! `sfn_prof::ProfileReport` and `sfn_metrics`' live snapshot schema.

#![warn(missing_docs)]

pub mod analyze;
pub mod audit;
pub mod chrome;
pub mod diff;
pub mod event;
pub mod flame;
pub mod profile;
pub mod top;

pub use analyze::{analyze, Analysis, KernelStat, ModelShare, Quantiles, RecoverySummary};
pub use audit::{audit, AuditReport, Contradiction};
pub use chrome::export_chrome;
pub use diff::{diff, Regression, Thresholds, Verdict};
pub use event::{load_trace, parse_trace, Trace, TraceEvent};
pub use flame::{fold, FlameFrame, FlameGraph};
pub use top::{fetch_snapshot, render_top};
