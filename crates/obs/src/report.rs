//! The global per-stage time table and the end-of-run report — the
//! observable analogue of the paper's Table 3 time distribution.

use crate::metrics;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Aggregate timing for one stage path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Number of recorded scopes.
    pub calls: u64,
    /// Summed elapsed time.
    pub total: Duration,
    /// Fastest single scope.
    pub min: Duration,
    /// Slowest single scope.
    pub max: Duration,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn stages() -> &'static Mutex<BTreeMap<String, StageStats>> {
    static MAP: OnceLock<Mutex<BTreeMap<String, StageStats>>> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Prefix of the per-stage latency histograms fed by [`record_stage`]
/// (`stage.<path>`, samples in seconds).
pub const STAGE_HISTOGRAM_PREFIX: &str = "stage.";

pub(crate) fn record_stage(path: &str, elapsed: Duration) {
    // Per-stage latency distribution, alongside the scalar aggregates:
    // the percentile source for `run_all_summary.json` and the
    // `stage.summary` trace events.
    metrics::histogram(&format!("{STAGE_HISTOGRAM_PREFIX}{path}"))
        .record(elapsed.as_secs_f64());
    let mut map = lock(stages());
    match map.get_mut(path) {
        Some(s) => {
            s.calls += 1;
            s.total += elapsed;
            s.min = s.min.min(elapsed);
            s.max = s.max.max(elapsed);
        }
        None => {
            map.insert(
                path.to_string(),
                StageStats {
                    calls: 1,
                    total: elapsed,
                    min: elapsed,
                    max: elapsed,
                },
            );
        }
    }
}

/// All recorded stages, sorted by path.
pub fn stage_snapshot() -> Vec<(String, StageStats)> {
    lock(stages())
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Latency percentile snapshots for every recorded stage, sorted by
/// path (seconds; the `stage.` histogram prefix is stripped).
pub fn stage_percentiles() -> Vec<(String, crate::HistogramSnapshot)> {
    metrics::histograms_snapshot()
        .into_iter()
        .filter_map(|(name, snap)| {
            name.strip_prefix(STAGE_HISTOGRAM_PREFIX)
                .map(|stage| (stage.to_string(), snap))
        })
        .collect()
}

/// Clears every stage aggregate, counter and histogram (tests and
/// repeated in-process runs).
pub fn reset() {
    lock(stages()).clear();
    metrics::reset_metrics();
}

/// Renders the end-of-run report: the per-stage time table plus counter
/// and histogram summaries.
///
/// `share` is each stage's fraction of the summed *root* stage time
/// (stages with no recorded parent). Nested spans also appear inside
/// their parents' totals, so shares are a guide, not a partition.
pub fn render_report() -> String {
    let stages = stage_snapshot();
    let mut out = String::new();
    out.push_str("== sfn-obs run report ==\n");
    if stages.is_empty() {
        out.push_str("(no stages recorded — set SFN_LOG=info or SFN_TRACE_FILE)\n");
    } else {
        let is_root = |name: &str| {
            !stages
                .iter()
                .any(|(p, _)| name != p && name.starts_with(p.as_str()) && name.as_bytes()[p.len()] == b'/')
        };
        let grand: f64 = stages
            .iter()
            .filter(|(n, _)| is_root(n))
            .map(|(_, s)| s.total.as_secs_f64())
            .sum();
        let _ = writeln!(
            out,
            "{:<34} {:>9} {:>12} {:>11} {:>8}",
            "stage", "calls", "total(s)", "mean(ms)", "share"
        );
        for (name, s) in &stages {
            let total = s.total.as_secs_f64();
            let mean_ms = if s.calls > 0 {
                1e3 * total / s.calls as f64
            } else {
                0.0
            };
            let share = if grand > 0.0 { 100.0 * total / grand } else { 0.0 };
            let _ = writeln!(
                out,
                "{:<34} {:>9} {:>12.4} {:>11.4} {:>7.1}%",
                name, s.calls, total, mean_ms, share
            );
        }
    }
    let counters = metrics::counters_snapshot();
    if !counters.is_empty() {
        out.push_str("-- counters --\n");
        for (name, v) in counters {
            let _ = writeln!(out, "{name:<34} {v:>12}");
        }
    }
    let hists = metrics::histograms_snapshot();
    if !hists.is_empty() {
        out.push_str("-- histograms --\n");
        for (name, h) in hists {
            let _ = writeln!(
                out,
                "{:<34} n={} mean={:.4e} min={:.4e} max={:.4e} ~p50={:.4e} ~p95={:.4e} ~p99={:.4e}",
                name,
                h.count,
                h.mean(),
                h.min,
                h.max,
                h.p50,
                h.p95,
                h.p99
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn report_lists_stages_counters_histograms() {
        let _guard = test_lock::hold();
        crate::reset();
        crate::enable_metrics(true);
        record_stage("test_report_stage", Duration::from_millis(10));
        record_stage("test_report_stage", Duration::from_millis(30));
        record_stage("test_report_stage/child", Duration::from_millis(5));
        crate::counter_add("test.report.counter", 7);
        crate::histogram_record("test.report.hist", 0.5);
        let report = render_report();
        assert!(report.contains("test_report_stage"), "{report}");
        assert!(report.contains("test_report_stage/child"), "{report}");
        assert!(report.contains("test.report.counter"), "{report}");
        assert!(report.contains("test.report.hist"), "{report}");
        // Two calls, 40ms total -> 20ms mean.
        let line = report
            .lines()
            .find(|l| l.starts_with("test_report_stage "))
            .unwrap();
        assert!(line.contains("2"), "{line}");
        crate::enable_metrics(false);
        crate::reset();
        assert!(crate::stage_snapshot().is_empty());
    }

    #[test]
    fn empty_report_renders_hint() {
        let _guard = test_lock::hold();
        crate::reset();
        let report = render_report();
        assert!(report.contains("no stages recorded"), "{report}");
    }
}
