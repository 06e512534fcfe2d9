//! Prometheus text exposition (format version 0.0.4) rendering and an
//! in-tree validator for it.
//!
//! Rendered families:
//!
//! * every cumulative sfn-obs counter as `sfn_<name>_total`;
//! * every windowed histogram series as a summary — `quantile`-labelled
//!   samples plus `_sum`/`_count`, one labelset per window
//!   (`window="60s"` / `window="600s"` at default config);
//! * gauges: bridge-maintained values, per-objective SLO burn rates
//!   (`sfn_slo_burn_rate`), health/uptime, the model roster
//!   (`sfn_model_steps`), and per-kernel throughput
//!   (`sfn_kernel_gflops`).
//!
//! Metric names are sanitized to `[a-zA-Z_][a-zA-Z0-9_]*`; everything
//! dynamic (model, kernel, objective, window) is a label value, where
//! arbitrary UTF-8 is legal once escaped.

use crate::hub::{Hub, Window};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Sanitizes an sfn metric name (`runtime.step_secs`,
/// `stage.step/advect`) into a Prometheus metric-name suffix.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn push_value(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Renders the full `/metrics` payload for `hub`.
pub fn render(hub: &Hub) -> String {
    let now_ms = hub.now_ms();
    let mut out = String::with_capacity(8 * 1024);
    let windows = [
        (Window::Fast, format!("{:.0}s", hub.config().fast_window_secs())),
        (Window::Slow, format!("{:.0}s", hub.config().slow_window_secs())),
    ];

    out.push_str("# HELP sfn_up Whether the sfn-metrics endpoint is live.\n# TYPE sfn_up gauge\nsfn_up 1\n");
    out.push_str("# HELP sfn_uptime_seconds Seconds since the metric hub started.\n# TYPE sfn_uptime_seconds gauge\n");
    let _ = writeln!(out, "sfn_uptime_seconds {:.3}", hub.uptime_secs());
    let health = hub.health();
    out.push_str("# HELP sfn_health_degraded 1 while any SLO objective is burning.\n# TYPE sfn_health_degraded gauge\n");
    let _ = writeln!(out, "sfn_health_degraded {}", u8::from(health.degraded));

    // Cumulative counters.
    for (name, value) in hub.counter_totals() {
        let metric = format!("sfn_{}_total", sanitize_name(&name));
        let _ = writeln!(out, "# HELP {metric} Cumulative sfn counter `{name}`.");
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {value}");
    }

    // Windowed quantile summaries.
    for name in hub.series_names() {
        let metric = format!("sfn_{}", sanitize_name(&name));
        let _ = writeln!(out, "# HELP {metric} Sliding-window summary of sfn series `{name}`.");
        let _ = writeln!(out, "# TYPE {metric} summary");
        for (window, label) in &windows {
            let snap = hub.window_at(&name, *window, now_ms);
            for (q, v) in
                [("0.5", snap.p50), ("0.9", snap.p90), ("0.95", snap.p95), ("0.99", snap.p99)]
            {
                let _ = write!(out, "{metric}{{window=\"{label}\",quantile=\"{q}\"}} ");
                push_value(&mut out, v);
                out.push('\n');
            }
            let _ = write!(out, "{metric}_sum{{window=\"{label}\"}} ");
            push_value(&mut out, snap.sum);
            out.push('\n');
            let _ = writeln!(out, "{metric}_count{{window=\"{label}\"}} {}", snap.count);
        }
    }

    // Bridge-maintained gauges.
    for (name, value) in hub.gauges() {
        let metric = format!("sfn_{}", sanitize_name(&name));
        let _ = writeln!(out, "# HELP {metric} Live gauge `{name}`.");
        let _ = writeln!(out, "# TYPE {metric} gauge");
        let _ = write!(out, "{metric} ");
        push_value(&mut out, value);
        out.push('\n');
    }

    // SLO burn rates.
    out.push_str("# HELP sfn_slo_burn_rate Error-budget burn rate per objective and window.\n# TYPE sfn_slo_burn_rate gauge\n");
    out.push_str("# HELP sfn_slo_burning 1 while the objective's multi-window burn rule holds.\n# TYPE sfn_slo_burning gauge\n");
    for state in hub.slo_states() {
        let objective = escape_label(&state.spec.name);
        for (window, burn) in [("fast", state.fast_burn), ("slow", state.slow_burn)] {
            let _ = write!(out, "sfn_slo_burn_rate{{objective=\"{objective}\",window=\"{window}\"}} ");
            push_value(&mut out, burn);
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "sfn_slo_burning{{objective=\"{objective}\"}} {}",
            u8::from(state.burning)
        );
    }

    // Scheduler roster.
    let roster = hub.roster();
    if !roster.is_empty() {
        out.push_str("# HELP sfn_model_steps Steps driven per model since the hub started.\n# TYPE sfn_model_steps counter\n");
        for (model, stat) in &roster {
            let _ =
                writeln!(out, "sfn_model_steps{{model=\"{}\"}} {}", escape_label(model), stat.steps);
        }
        out.push_str("# HELP sfn_model_quarantines Quarantines per model since the hub started.\n# TYPE sfn_model_quarantines counter\n");
        for (model, stat) in &roster {
            let _ = writeln!(
                out,
                "sfn_model_quarantines{{model=\"{}\"}} {}",
                escape_label(model),
                stat.quarantines
            );
        }
    }

    // Kernel throughput.
    let kernels = hub.kernels();
    if !kernels.is_empty() {
        out.push_str("# HELP sfn_kernel_gflops Mean kernel throughput in GFLOP/s.\n# TYPE sfn_kernel_gflops gauge\n");
        for (kernel, stat) in &kernels {
            let _ = write!(out, "sfn_kernel_gflops{{kernel=\"{}\"}} ", escape_label(kernel));
            push_value(&mut out, stat.gflops());
            out.push('\n');
        }
    }

    // Fault tallies by kind.
    let faults = hub.faults();
    if !faults.is_empty() {
        out.push_str("# HELP sfn_faults_injected_by_kind Injected faults per kind.\n# TYPE sfn_faults_injected_by_kind counter\n");
        for (kind, n) in &faults {
            let _ =
                writeln!(out, "sfn_faults_injected_by_kind{{kind=\"{}\"}} {}", escape_label(kind), n);
        }
    }

    out
}

// ---------------------------------------------------------- validation

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Splits `name{labels}` / `name` off a sample line, returning
/// `(name, canonical labelset, rest)`.
fn parse_sample_head(line: &str) -> Result<(String, String, String), String> {
    match line.find('{') {
        None => {
            let mut it = line.splitn(2, ' ');
            let name = it.next().unwrap_or("").to_string();
            let rest = it.next().unwrap_or("").to_string();
            Ok((name, String::new(), rest))
        }
        Some(open) => {
            let name = line[..open].to_string();
            let body = &line[open + 1..];
            let labels = parse_labels(body)?;
            let rest = body[labels.end..].trim_start().to_string();
            Ok((name, labels.canonical, rest))
        }
    }
}

struct Labels {
    canonical: String,
    end: usize,
}

fn parse_labels(body: &str) -> Result<Labels, String> {
    // body is everything after `{`; parse `name="value",...}`.
    let bytes = body.as_bytes();
    let mut i = 0usize;
    let mut pairs: Vec<(String, String)> = Vec::new();
    loop {
        if i >= bytes.len() {
            return Err("unterminated labelset".into());
        }
        if bytes[i] == b'}' {
            i += 1;
            break;
        }
        let name_start = i;
        while i < bytes.len() && bytes[i] != b'=' {
            i += 1;
        }
        let name = &body[name_start..i];
        if !valid_label_name(name) {
            return Err(format!("bad label name {name:?}"));
        }
        i += 1; // '='
        if i >= bytes.len() || bytes[i] != b'"' {
            return Err("label value is not quoted".into());
        }
        i += 1;
        let mut value = String::new();
        loop {
            if i >= bytes.len() {
                return Err("unterminated label value".into());
            }
            match bytes[i] {
                b'"' => {
                    i += 1;
                    break;
                }
                b'\\' => {
                    let esc = bytes.get(i + 1).ok_or("dangling escape")?;
                    match esc {
                        b'\\' => value.push('\\'),
                        b'"' => value.push('"'),
                        b'n' => value.push('\n'),
                        other => return Err(format!("bad escape \\{}", *other as char)),
                    }
                    i += 2;
                }
                _ => {
                    // Body is valid UTF-8 (it came from a &str); walk
                    // one whole char.
                    let ch = body[i..].chars().next().ok_or("bad utf-8")?;
                    value.push(ch);
                    i += ch.len_utf8();
                }
            }
        }
        pairs.push((name.to_string(), value));
        if i < bytes.len() && bytes[i] == b',' {
            i += 1;
        }
    }
    pairs.sort();
    let canonical = pairs
        .iter()
        .map(|(k, v)| format!("{k}={v:?}"))
        .collect::<Vec<_>>()
        .join(",");
    Ok(Labels { canonical, end: i })
}

fn valid_value(s: &str) -> bool {
    matches!(s, "NaN" | "+Inf" | "-Inf" | "Inf") || s.parse::<f64>().is_ok()
}

/// Validates a text exposition payload: `# HELP` / `# TYPE` comment
/// grammar, metric/label name charsets, quoted+escaped label values,
/// parseable sample values, `TYPE` declared before its samples, and no
/// duplicate `(name, labelset)`. Returns the number of sample lines
/// (series) on success.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    const TYPES: [&str; 5] = ["counter", "gauge", "summary", "histogram", "untyped"];
    let mut typed: BTreeSet<String> = BTreeSet::new();
    let mut sampled: BTreeSet<String> = BTreeSet::new();
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut samples = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap_or("");
            let ty = it.next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(format!("line {lineno}: bad metric name in TYPE: {name:?}"));
            }
            if !TYPES.contains(&ty) {
                return Err(format!("line {lineno}: unknown TYPE {ty:?}"));
            }
            if sampled.contains(name) {
                return Err(format!("line {lineno}: TYPE for {name} after its samples"));
            }
            if !typed.insert(name.to_string()) {
                return Err(format!("line {lineno}: duplicate TYPE for {name}"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(format!("line {lineno}: bad metric name in HELP: {name:?}"));
            }
            continue;
        }
        if line.starts_with('#') {
            // Free-form comment: legal, ignored.
            continue;
        }
        let (name, labels, rest) =
            parse_sample_head(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if !valid_metric_name(&name) {
            return Err(format!("line {lineno}: bad metric name {name:?}"));
        }
        let mut fields = rest.split_whitespace();
        let value = fields.next().unwrap_or("");
        if !valid_value(value) {
            return Err(format!("line {lineno}: bad sample value {value:?}"));
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {lineno}: bad timestamp {ts:?}"));
            }
        }
        if fields.next().is_some() {
            return Err(format!("line {lineno}: trailing garbage after value"));
        }
        if !seen.insert((name.clone(), labels)) {
            return Err(format!("line {lineno}: duplicate series {name} with same labels"));
        }
        // `_sum`/`_count`/`_bucket` samples belong to their family for
        // TYPE-ordering purposes.
        let family = name
            .strip_suffix("_sum")
            .or_else(|| name.strip_suffix("_count"))
            .or_else(|| name.strip_suffix("_bucket"))
            .unwrap_or(&name);
        sampled.insert(family.to_string());
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples".into());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::Config;

    #[test]
    fn sanitize_produces_legal_names() {
        assert_eq!(sanitize_name("runtime.step_secs"), "runtime_step_secs");
        assert_eq!(sanitize_name("stage.step/advect"), "stage_step_advect");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert!(valid_metric_name(&format!("sfn_{}", sanitize_name("stage.step/advect"))));
    }

    #[test]
    fn rendered_exposition_validates_and_has_expected_series() {
        let hub = Hub::new(Config::default());
        let h = sfn_obs::Histogram::new();
        for i in 1..=100 {
            h.record(i as f64 / 1000.0);
        }
        hub.ingest_at("runtime.step_secs", &h.snapshot(), hub.now_ms());
        hub.set_gauge("scheduler.candidates", 5.0);
        hub.note_model_step("mlp-a", 1);
        hub.note_kernel(
            "conv2d",
            sfn_prof::KernelTotals { calls: 3, ns: 1000, flops: 4000, ..Default::default() },
        );
        hub.note_fault("nan_output");
        let text = render(&hub);
        let series = validate_exposition(&text).expect("rendered exposition validates");
        assert!(series >= 20, "expected >= 20 series, got {series}:\n{text}");
        for needle in [
            "sfn_up 1",
            "sfn_runtime_step_secs{window=\"60s\",quantile=\"0.99\"}",
            "sfn_runtime_step_secs_count{window=\"600s\"} 100",
            "sfn_slo_burn_rate{objective=\"step-latency\",window=\"fast\"}",
            "sfn_model_steps{model=\"mlp-a\"} 1",
            "sfn_kernel_gflops{kernel=\"conv2d\"} 4",
            "sfn_faults_injected_by_kind{kind=\"nan_output\"} 1",
            "sfn_health_degraded 0",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn validator_rejects_doctored_payloads() {
        for (payload, why) in [
            ("", "empty"),
            ("sfn_up one\n", "non-numeric value"),
            ("sfn up 1\n", "space in name"),
            ("sfn_up{bad-label=\"x\"} 1\n", "bad label name"),
            ("sfn_up{l=\"x} 1\n", "unterminated label value"),
            ("sfn_up{l=\"x\"} 1 2 3\n", "trailing garbage"),
            ("sfn_up 1\nsfn_up 1\n", "duplicate series"),
            ("sfn_up 1\n# TYPE sfn_up gauge\n", "TYPE after samples"),
            ("# TYPE sfn_up flavour\nsfn_up 1\n", "unknown type"),
        ] {
            assert!(validate_exposition(payload).is_err(), "should reject: {why}");
        }
        let ok = "# HELP sfn_up x\n# TYPE sfn_up gauge\nsfn_up 1\nx{a=\"b\\\"c\",d=\"e\"} +Inf 123\n";
        assert_eq!(validate_exposition(ok), Ok(2));
    }
}
