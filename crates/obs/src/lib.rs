//! `sfn-obs` — the observability layer of the Smart-fluidnet pipeline.
//!
//! The adaptive runtime's behaviour (Algorithm 2's switch/restart
//! decisions), the per-stage costs it trades off (advect / forces /
//! projection; PCG iterations vs. NN inference) and the bench harness's
//! progress all flow through this crate:
//!
//! * **Spans** — [`span!`] opens a hierarchical RAII timing scope;
//!   elapsed times aggregate thread-safely into one `stage.<path>`
//!   histogram per stage, read back as [`StageSummary`] rows
//!   ([`report::render_report`] is the Table-3 analogue).
//!   [`ScopedTimer`] is the flat variant that also *returns* the
//!   elapsed [`std::time::Duration`] for callers that need it.
//! * **Counters & histograms** — [`counter_add`] / [`histogram_record`]
//!   accumulate PCG iterations, conv FLOPs, steps per model,
//!   `CumDivNorm` samples, switch/restart events…
//! * **Structured events** — [`event`] builds one JSONL record written
//!   to the file named by `SFN_TRACE_FILE` and, at or above the
//!   `SFN_LOG` verbosity, a human-readable line on stderr.
//! * **Flight recorder** — [`flight`] keeps the most recent `info`+
//!   events in a fixed ring even when tracing is off, and dumps a JSONL
//!   crash report on panic or when the simulation's blow-up guard /
//!   sanitizer calls [`note_incident`].
//! * **Knobs** — [`env::knob`] is the one reader of numeric, list and
//!   on/off `SFN_*` variables for every crate above `sfn-par`.
//!
//! # Configuration
//!
//! | variable | effect |
//! |---|---|
//! | `SFN_LOG` | stderr verbosity: `off`, `error`, `warn` (default), `info`, `debug`, `trace`; `info`+ also enables metrics |
//! | `SFN_TRACE_FILE` | path of the JSONL event trace (created/truncated); setting it enables metrics |
//! | `SFN_CRASH_FILE` | crash-report path; setting it installs the panic hook |
//!
//! # Overhead
//!
//! Everything is off by default. The disabled fast path of a span or a
//! counter update is a single relaxed atomic load — no allocation, no
//! locking, no `Instant::now` — so instrumented hot loops run at full
//! speed (`tests/overhead.rs` holds the disabled probes of a 64²
//! reference step under 2% of it, and checks that a healthy step puts
//! nothing into the flight recorder).
//!
//! This crate is deliberately dependency-free so the whole workspace
//! can link it without cost.

#![warn(missing_docs)]

pub mod env;
pub mod events;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod report;
pub mod span;

pub use events::{
    add_event_observer, clear_event_observers, event, flush_trace, log, observing, set_trace_file,
    set_trace_writer, EventBuilder,
};
pub use flight::{
    crash_report, flight_enabled, incident_count, install_crash_handler, note_incident,
    set_crash_file, set_flight_enabled,
};
pub use metrics::{
    bucket_floor, bucket_index, counter, counter_add, counter_value, counters_snapshot,
    exact_quantile, histogram, histogram_record, histogram_snapshot, histograms_snapshot, Counter,
    Histogram, HistogramSnapshot, BUCKETS,
};
pub use report::{render_report, reset, stage_summaries, StageSummary};
pub use span::{current_path as current_span_path, ScopedTimer, SpanGuard};

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Once, OnceLock};
use std::time::Instant;

/// Severity / verbosity levels, ordered from silent to most verbose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Logging disabled.
    Off = 0,
    /// Unrecoverable or data-destroying conditions (NaN blow-ups).
    Error = 1,
    /// Suspicious but survivable conditions (malformed env vars,
    /// cache-write failures). The default stderr verbosity.
    Warn = 2,
    /// Behavioural milestones (scheduler decisions, bench progress).
    Info = 3,
    /// Periodic internals (physical diagnostics every few steps).
    Debug = 4,
    /// Per-operation records (every Poisson solve).
    Trace = 5,
}

impl Level {
    /// Parses `"warn"`-style (or numeric `"2"`-style) level names.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(Level::Off),
            "error" | "1" => Some(Level::Error),
            "warn" | "warning" | "2" => Some(Level::Warn),
            "info" | "3" => Some(Level::Info),
            "debug" | "4" => Some(Level::Debug),
            "trace" | "5" => Some(Level::Trace),
            _ => None,
        }
    }

    /// The lowercase name used in event records.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

static INIT: Once = Once::new();
static LOG_LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);
static METRICS: AtomicBool = AtomicBool::new(false);

fn start_instant() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Seconds since the first call into this crate (the `ts` of every
/// event record — monotonic, not wall-clock).
pub fn uptime() -> f64 {
    start_instant().elapsed().as_secs_f64()
}

/// Applies the `SFN_LOG` / `SFN_TRACE_FILE` / `SFN_CRASH_FILE`
/// environment configuration. Called lazily by every entry point; calling it
/// explicitly (e.g. first thing in `main`) only pins *when* the
/// environment is read.
pub fn init() {
    INIT.call_once(|| {
        let _ = start_instant();
        if let Ok(v) = std::env::var("SFN_LOG") {
            if !v.is_empty() {
                match Level::parse(&v) {
                    Some(l) => {
                        LOG_LEVEL.store(l as u8, Ordering::Relaxed);
                        if l >= Level::Info {
                            METRICS.store(true, Ordering::Relaxed);
                        }
                    }
                    None => eprintln!("[sfn warn] SFN_LOG={v:?} is not a log level (off|error|warn|info|debug|trace); keeping \"warn\""),
                }
            }
        }
        if let Ok(path) = std::env::var("SFN_TRACE_FILE") {
            if !path.is_empty() {
                METRICS.store(true, Ordering::Relaxed);
                if let Err(e) = events::set_trace_file(&path) {
                    eprintln!("[sfn warn] cannot open SFN_TRACE_FILE {path:?}: {e}");
                }
            }
        }
        flight::init_from_env();
    });
}

/// Overrides the stderr verbosity programmatically.
pub fn set_log_level(level: Level) {
    init();
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

pub(crate) fn log_enabled_raw(level: Level) -> bool {
    level != Level::Off && (level as u8) <= LOG_LEVEL.load(Ordering::Relaxed)
}

/// True if span/counter/histogram aggregation is active.
#[inline]
pub fn metrics_enabled() -> bool {
    init();
    METRICS.load(Ordering::Relaxed)
}

/// Turns span/counter/histogram aggregation on or off (the bench
/// harness enables it for its end-of-run report).
pub fn enable_metrics(on: bool) {
    init();
    METRICS.store(on, Ordering::Relaxed);
}

/// True if an event at `level` would be recorded anywhere (trace sink,
/// an in-process observer, or stderr) — the cheap pre-flight check
/// before computing expensive event payloads such as physical
/// diagnostics.
pub fn event_enabled(level: Level) -> bool {
    init();
    events::tracing_enabled_raw() || events::observing_raw() || log_enabled_raw(level)
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard};

    // The obs state is process-global; tests that toggle it serialise
    // on this lock so `cargo test`'s parallel threads don't interleave.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("warn"), Some(Level::Warn));
        assert_eq!(Level::parse("TRACE"), Some(Level::Trace));
        assert_eq!(Level::parse(" info "), Some(Level::Info));
        assert_eq!(Level::parse("3"), Some(Level::Info));
        assert_eq!(Level::parse("verbose"), None);
        assert!(Level::Trace > Level::Debug && Level::Error < Level::Warn);
    }

    #[test]
    fn metrics_toggle_round_trips() {
        let _guard = test_lock::hold();
        let before = metrics_enabled();
        enable_metrics(true);
        assert!(metrics_enabled());
        enable_metrics(false);
        assert!(!metrics_enabled());
        enable_metrics(before);
    }
}
