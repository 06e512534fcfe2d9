//! The `/snapshot.json` payload: a structured `sfn-metrics/live@1`
//! document carrying everything `sfn-trace top` renders — windowed
//! summaries, counter totals, gauges, the scheduler roster, kernel
//! throughput, fault tallies, SLO burn state, and health.

use crate::hub::{Hub, Window};
use sfn_obs::json::{obj, Value};
use sfn_obs::HistogramSnapshot;

/// Schema tag of the payload (`schema` field).
pub const SCHEMA: &str = "sfn-metrics/live@1";

fn num(v: f64) -> Value {
    // JSON has no NaN/Inf; empty-window percentiles become null.
    if v.is_finite() {
        Value::Num(v)
    } else {
        Value::Null
    }
}

fn summary(snap: &HistogramSnapshot) -> Value {
    obj([
        ("count", Value::Num(snap.count as f64)),
        ("sum", num(snap.sum)),
        ("min", num(snap.min)),
        ("max", num(snap.max)),
        ("p50", num(snap.p50)),
        ("p90", num(snap.p90)),
        ("p95", num(snap.p95)),
        ("p99", num(snap.p99)),
    ])
}

fn window_doc(hub: &Hub, window: Window, now_ms: u64) -> Value {
    let series = hub
        .series_names()
        .into_iter()
        .map(|name| {
            let snap = hub.window_at(&name, window, now_ms);
            (name, summary(&snap))
        })
        .collect::<Vec<_>>();
    let secs = match window {
        Window::Fast => hub.config().fast_window_secs(),
        Window::Slow => hub.config().slow_window_secs(),
    };
    obj([
        ("secs", Value::Num(secs)),
        ("series", Value::Obj(series)),
    ])
}

/// Renders the full snapshot document for `hub`.
pub fn render(hub: &Hub) -> String {
    let now_ms = hub.now_ms();
    let counters = hub
        .counter_totals()
        .into_iter()
        .map(|(k, v)| (k, Value::Num(v as f64)))
        .collect::<Vec<_>>();
    let gauges = hub.gauges().into_iter().map(|(k, v)| (k, num(v))).collect::<Vec<_>>();
    let roster = hub
        .roster()
        .into_iter()
        .map(|(model, stat)| {
            Value::Obj(vec![
                ("model".into(), Value::Str(model)),
                ("steps".into(), Value::Num(stat.steps as f64)),
                ("quarantines".into(), Value::Num(stat.quarantines as f64)),
                ("last_seen_ms".into(), Value::Num(stat.last_seen_ms as f64)),
            ])
        })
        .collect::<Vec<_>>();
    let kernels = hub
        .kernels()
        .into_iter()
        .map(|(kernel, t)| {
            Value::Obj(vec![
                ("kernel".into(), Value::Str(kernel)),
                ("calls".into(), Value::Num(t.calls as f64)),
                ("ns".into(), Value::Num(t.ns as f64)),
                ("gflops".into(), num(t.gflops())),
            ])
        })
        .collect::<Vec<_>>();
    let faults = hub
        .faults()
        .into_iter()
        .map(|(kind, n)| (kind, Value::Num(n as f64)))
        .collect::<Vec<_>>();
    let slo = hub
        .slo_states()
        .into_iter()
        .map(|s| {
            Value::Obj(vec![
                ("objective".into(), Value::Str(s.spec.name)),
                ("budget".into(), Value::Num(s.spec.budget)),
                ("fast_burn".into(), num(s.fast_burn)),
                ("slow_burn".into(), num(s.slow_burn)),
                ("burning".into(), Value::Bool(s.burning)),
            ])
        })
        .collect::<Vec<_>>();
    let health = hub.health();
    let doc = obj([
        ("schema", Value::Str(SCHEMA.into())),
        ("uptime_secs", Value::Num(hub.uptime_secs())),
        ("ticks", Value::Num(hub.ticks() as f64)),
        (
            "windows",
            obj([
                ("fast", window_doc(hub, Window::Fast, now_ms)),
                ("slow", window_doc(hub, Window::Slow, now_ms)),
            ]),
        ),
        ("counters", Value::Obj(counters)),
        ("gauges", Value::Obj(gauges)),
        ("roster", Value::Arr(roster)),
        ("kernels", Value::Arr(kernels)),
        ("faults", Value::Obj(faults)),
        ("slo", Value::Arr(slo)),
        (
            "health",
            obj([
                ("degraded", Value::Bool(health.degraded)),
                (
                    "reasons",
                    Value::Arr(health.reasons.into_iter().map(Value::Str).collect()),
                ),
            ]),
        ),
    ]);
    let mut out = doc.to_json();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::Config;
    use sfn_obs::json;

    #[test]
    fn snapshot_parses_and_carries_the_schema() {
        let hub = Hub::new(Config::default());
        let h = sfn_obs::Histogram::new();
        for i in 1..=50 {
            h.record(i as f64 / 100.0);
        }
        hub.ingest_at("runtime.step_secs", &h.snapshot(), hub.now_ms());
        hub.note_model_step("mlp-a", 5);
        hub.note_fault("latency_spike");
        hub.set_gauge("scheduler.candidates", 3.0);
        let text = render(&hub);
        let doc = json::parse(&text).expect("snapshot is valid json");
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some(SCHEMA));
        let fast = doc
            .get("windows")
            .and_then(|w| w.get("fast"))
            .expect("fast window present");
        let series = fast.get("series").and_then(|s| s.get("runtime.step_secs")).unwrap();
        assert_eq!(series.get("count").and_then(Value::as_u64), Some(50));
        assert!(series.get("p99").and_then(Value::as_f64).is_some());
        let roster = doc.get("roster").and_then(Value::as_arr).unwrap();
        assert_eq!(roster[0].get("model").and_then(Value::as_str), Some("mlp-a"));
        let slo = doc.get("slo").and_then(Value::as_arr).unwrap();
        assert_eq!(slo.len(), 3);
        assert_eq!(
            doc.get("health").and_then(|h| h.get("degraded")).and_then(Value::as_bool),
            Some(false)
        );
        // Empty-window percentiles serialize as null, not NaN.
        assert!(!text.contains("NaN"));
    }
}
