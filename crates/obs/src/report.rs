//! The per-stage latency summaries and the end-of-run report — the
//! observable analogue of the paper's Table 3 time distribution.

use crate::json::{FromJson, Value};
use crate::metrics;
use std::fmt::Write as _;
use std::time::Duration;

/// Prefix of the per-stage latency histograms fed by [`record_stage`]
/// (`stage.<path>`, samples in seconds).
const STAGE_HISTOGRAM_PREFIX: &str = "stage.";

pub(crate) fn record_stage(path: &str, elapsed: Duration) {
    metrics::histogram(&format!("{STAGE_HISTOGRAM_PREFIX}{path}"))
        .record(elapsed.as_secs_f64());
}

/// One stage's latency summary: the row of `run_all_summary.json`'s
/// `stages` array, of a `stage.summary` trace event and of a saved
/// `sfn-trace` summary. Percentiles are the histogram's bucket
/// estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    /// Stage path (`runtime/run`, `sim/step/projection`, …).
    pub name: String,
    /// Recorded scopes.
    pub calls: u64,
    /// Summed time in seconds.
    pub total_secs: f64,
    /// Approximate median, milliseconds.
    pub p50_ms: f64,
    /// Approximate 90th percentile, milliseconds.
    pub p90_ms: f64,
    /// Approximate 99th percentile, milliseconds.
    pub p99_ms: f64,
}

crate::json_record!(StageSummary {
    name: "?".to_string(),
    calls: 0,
    total_secs: f64::NAN,
    p50_ms: f64::NAN,
    p90_ms: f64::NAN,
    p99_ms: f64::NAN,
});

impl StageSummary {
    /// Decodes the fields of a `stage.summary` trace event, which names
    /// the stage `stage` where a saved row says `name`.
    pub fn from_event(fields: &Value) -> StageSummary {
        let row = StageSummary::from_json_value(fields).expect("lenient decode never fails");
        StageSummary { name: fields.field("stage").unwrap_or(row.name), ..row }
    }

    /// Emits the row as a `stage.summary` trace event, so
    /// `sfn-trace analyze` sees the same percentiles as the JSON
    /// summary.
    pub fn emit(&self) {
        crate::event(crate::Level::Info, "stage.summary")
            .field_str("stage", &self.name)
            .field_u64("calls", self.calls)
            .field_f64("total_secs", self.total_secs)
            .field_f64("p50_ms", self.p50_ms)
            .field_f64("p90_ms", self.p90_ms)
            .field_f64("p99_ms", self.p99_ms)
            .emit();
    }
}

/// Every stage recorded since the last [`reset`], sorted by path, from
/// the `stage.<path>` histograms.
pub fn stage_summaries() -> Vec<StageSummary> {
    metrics::histograms_snapshot()
        .into_iter()
        .filter(|(_, h)| h.count > 0)
        .filter_map(|(name, h)| {
            let stage = name.strip_prefix(STAGE_HISTOGRAM_PREFIX)?;
            Some(StageSummary {
                name: stage.to_string(),
                calls: h.count,
                total_secs: h.sum,
                p50_ms: 1e3 * h.p50,
                p90_ms: 1e3 * h.p90,
                p99_ms: 1e3 * h.p99,
            })
        })
        .collect()
}

/// Clears every counter and histogram, stages included (tests and
/// repeated in-process runs).
pub fn reset() {
    metrics::reset_metrics();
}

/// Renders the end-of-run report: the per-stage time table plus counter
/// and histogram summaries.
///
/// `share` is each stage's fraction of the summed *root* stage time
/// (stages with no recorded parent). Nested spans also appear inside
/// their parents' totals, so shares are a guide, not a partition.
pub fn render_report() -> String {
    let stages = stage_summaries();
    let mut out = String::new();
    out.push_str("== sfn-obs run report ==\n");
    if stages.is_empty() {
        out.push_str("(no stages recorded — set SFN_LOG=info or SFN_TRACE_FILE)\n");
    } else {
        let is_root = |name: &str| {
            !stages.iter().any(|p| {
                let p = p.name.as_str();
                name != p && name.starts_with(p) && name.as_bytes()[p.len()] == b'/'
            })
        };
        let grand: f64 = stages.iter().filter(|s| is_root(&s.name)).map(|s| s.total_secs).sum();
        let _ = writeln!(
            out,
            "{:<34} {:>9} {:>12} {:>11} {:>8}",
            "stage", "calls", "total(s)", "mean(ms)", "share"
        );
        for s in &stages {
            let total = s.total_secs;
            let mean_ms = 1e3 * total / s.calls as f64;
            let share = if grand > 0.0 { 100.0 * total / grand } else { 0.0 };
            let _ = writeln!(
                out,
                "{:<34} {:>9} {:>12.4} {:>11.4} {:>7.1}%",
                s.name, s.calls, total, mean_ms, share
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
        assert!(crate::stage_summaries().is_empty());
    }

    #[test]
    fn empty_report_renders_hint() {
        let _guard = test_lock::hold();
        crate::reset();
        let report = render_report();
        assert!(report.contains("no stages recorded"), "{report}");
    }
}
