//! The obs→metrics bridge: a fanout sink turning the event stream the
//! codebase already emits (`runtime.step`, `scheduler.decision`,
//! `fault.injected`, `prof.kernel`, …) into live series
//! — zero new instrumentation call sites, and the only route from an
//! event to a live series: the emitting crates do not depend on this
//! one, so each series has exactly one feeder.
//!
//! The bridge registers an [`sfn_obs::add_event_observer`] callback;
//! installing it makes `sfn_obs::event_enabled` true at every level,
//! so even Trace-gated emitters (the per-step `runtime.step` record)
//! keep firing when nothing but the live endpoint is listening. Each
//! `runtime.step` feeds the `runtime.step_secs` latency series (from
//! its `secs` field), the `runtime.steps` rate counter and the model
//! roster; the runtime records `runtime.div_norm` itself.
//!
//! Value-carrying fields are fed into sfn-obs histograms through
//! handles interned once at install time (lock-free per event);
//! the collector then windows them like any other histogram. Roster /
//! kernel / fault tallies go straight to the hub (one short mutex,
//! at event rate, off the simulation hot path).
//!
//! Re-entrancy rule: the callback must never emit events itself — it
//! only records metrics and touches hub state.

use crate::hub::Hub;
use sfn_obs::json::{self, Value};
use sfn_obs::{counter, histogram, Counter, Histogram};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

struct Handles {
    step_secs: &'static Histogram,
    steps: &'static Counter,
    predicted_loss: &'static Histogram,
    events_observed: &'static Counter,
}

/// Installs the bridge feeding `hub`. Idempotent per process (the
/// second and later calls are no-ops — one observer, one hub).
pub fn install(hub: Arc<Hub>) {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    // The bridge is an aggregation consumer: make sure counters and
    // histograms actually record.
    sfn_obs::enable_metrics(true);
    let handles = Handles {
        step_secs: histogram("runtime.step_secs"),
        steps: counter("runtime.steps"),
        predicted_loss: histogram("scheduler.predicted_loss"),
        events_observed: counter("metrics.events_observed"),
    };
    sfn_obs::add_event_observer(Box::new(move |line| observe_line(&hub, &handles, line)));
}

fn observe_line(hub: &Hub, handles: &Handles, line: &str) {
    handles.events_observed.add(1);
    let Ok(v) = json::parse(line) else {
        return;
    };
    let Some(kind) = v.get("kind").and_then(Value::as_str) else {
        return;
    };
    let f64_field = |key: &str| v.get(key).and_then(Value::as_f64);
    let str_field = |key: &str| v.get(key).and_then(Value::as_str);
    match kind {
        "runtime.step" => {
            handles.steps.add(1);
            if let Some(secs) = f64_field("secs") {
                handles.step_secs.record(secs);
            }
            if let Some(model) = str_field("model") {
                hub.note_model_step(model, hub.now_ms());
            }
        }
        "scheduler.decision" => {
            if let Some(loss) = f64_field("predicted_loss") {
                handles.predicted_loss.record(loss);
            }
            if let Some(n) = f64_field("candidates") {
                hub.set_gauge("scheduler.candidates", n);
            }
            if let Some(n) = f64_field("barred") {
                hub.set_gauge("scheduler.barred", n);
            }
        }
        "runtime.quarantine" => {
            if let Some(model) = str_field("model") {
                hub.note_model_quarantined(model);
            }
        }
        "fault.injected" => {
            hub.note_fault(str_field("fault").unwrap_or("unknown"));
        }
        "prof.kernel" => {
            if let Some(kernel) = str_field("kernel") {
                hub.note_kernel(kernel, sfn_prof::KernelTotals::from_fields(&v));
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::Config;

    // `install` is process-global, so the parsing path is tested
    // directly: feed canned lines through `observe_line`.
    fn test_handles() -> Handles {
        Handles {
            step_secs: histogram("test.bridge.step_secs"),
            steps: counter("test.bridge.steps"),
            predicted_loss: histogram("test.bridge.predicted_loss"),
            events_observed: counter("test.bridge.events_observed"),
        }
    }

    #[test]
    fn bridges_known_kinds_into_hub_state() {
        let hub = Hub::new(Config::default());
        let handles = test_handles();
        let lines = [
            r#"{"ts":0.1,"level":"trace","kind":"runtime.step","step":3,"model":"mlp-a","secs":0.002,"div_norm":0.01}"#,
            r#"{"ts":0.2,"level":"info","kind":"scheduler.decision","model":"mlp-a","predicted_loss":0.4,"candidates":5,"barred":1}"#,
            r#"{"ts":0.3,"level":"warn","kind":"runtime.quarantine","model":"mlp-a","strikes":1}"#,
            r#"{"ts":0.4,"level":"warn","kind":"fault.injected","fault":"nan_output","site":"chaos"}"#,
            r#"{"ts":0.6,"level":"info","kind":"prof.kernel","kernel":"conv2d","calls":2,"ns":1000,"flops":5000}"#,
            r#"{"ts":0.7,"level":"info","kind":"unknown.kind","x":1}"#,
            "not json at all",
        ];
        let before = handles.events_observed.get();
        for line in lines {
            observe_line(&hub, &handles, line);
        }
        assert_eq!(handles.events_observed.get() - before, lines.len() as u64);
        assert_eq!(handles.steps.get(), 1);
        assert_eq!(handles.step_secs.snapshot().count, 1);
        assert_eq!(handles.step_secs.snapshot().sum, 0.002);
        assert_eq!(handles.predicted_loss.snapshot().count, 1);
        let roster = hub.roster();
        assert_eq!(roster[0].0, "mlp-a");
        assert_eq!((roster[0].1.steps, roster[0].1.quarantines), (1, 1));
        assert_eq!(hub.faults(), vec![("nan_output".into(), 1)]);
        assert_eq!(hub.kernels()[0].0, "conv2d");
        assert!((hub.kernels()[0].1.gflops() - 5.0).abs() < 1e-12);
        let gauges = hub.gauges();
        assert!(gauges.iter().any(|(k, v)| k == "scheduler.candidates" && *v == 5.0));
    }
}
