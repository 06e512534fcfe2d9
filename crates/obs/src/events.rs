//! Structured events: one JSONL record per event in the trace file
//! (`SFN_TRACE_FILE`), plus a human-readable stderr line at or above
//! the `SFN_LOG` verbosity.
//!
//! Schema of a trace line:
//!
//! ```json
//! {"ts":12.345,"level":"info","kind":"scheduler.decision","step":20,...}
//! ```
//!
//! `ts` is seconds since process start (monotonic), `level` the
//! severity, `kind` a dotted event name; all further keys are
//! event-specific fields.

use crate::{flight, json, Level};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

static TRACING: AtomicBool = AtomicBool::new(false);

type Sink = Option<Box<dyn Write + Send>>;

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

fn lock_sink() -> MutexGuard<'static, Sink> {
    sink().lock().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn tracing_enabled_raw() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Opens (creating/truncating) `path` as the JSONL trace sink.
pub fn set_trace_file(path: &str) -> std::io::Result<()> {
    let file = File::create(path)?;
    set_trace_writer(Some(Box::new(BufWriter::new(file))));
    Ok(())
}

/// Installs (or with `None` removes) the trace sink. Tests inject an
/// in-memory writer here.
pub fn set_trace_writer(writer: Sink) {
    let mut guard = lock_sink();
    // Flush whatever sink is being replaced so no records are lost.
    if let Some(old) = guard.as_mut() {
        let _ = old.flush();
    }
    TRACING.store(writer.is_some(), Ordering::Relaxed);
    *guard = writer;
}

/// Flushes the trace sink (buffered file writers only write on flush or
/// when their buffer fills).
pub fn flush_trace() {
    if let Some(w) = lock_sink().as_mut() {
        let _ = w.flush();
    }
}

fn write_trace_line(line: &str) {
    if let Some(w) = lock_sink().as_mut() {
        let _ = w.write_all(line.as_bytes());
        let _ = w.write_all(b"\n");
    }
}

// ------------------------------------------------------------ observers
//
// A fanout of in-process sinks receiving every finished event JSON
// line (in addition to the trace file / flight recorder). sfn-metrics
// bridges events into live series through this hook, which is why
// installing an observer makes `event_enabled` true at every level:
// call sites that gate payload construction on it must keep firing
// when only an observer is listening.

static OBSERVING: AtomicBool = AtomicBool::new(false);

type Observer = Box<dyn Fn(&str) + Send + Sync>;

fn observers() -> &'static Mutex<Vec<Observer>> {
    static OBSERVERS: OnceLock<Mutex<Vec<Observer>>> = OnceLock::new();
    OBSERVERS.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_observers() -> MutexGuard<'static, Vec<Observer>> {
    observers().lock().unwrap_or_else(|e| e.into_inner())
}

/// True if at least one in-process event observer is installed.
pub fn observing() -> bool {
    crate::init();
    observing_raw()
}

pub(crate) fn observing_raw() -> bool {
    OBSERVING.load(Ordering::Relaxed)
}

/// Installs an in-process fanout observer; `f` is called with every
/// finished event JSON line (same schema as the trace file, without
/// the trailing newline). Observers run on the emitting thread and
/// must be fast and must never emit events themselves (re-entry would
/// recurse) or block on locks held across event emission.
pub fn add_event_observer(f: Box<dyn Fn(&str) + Send + Sync>) {
    crate::init();
    let mut obs = lock_observers();
    obs.push(f);
    OBSERVING.store(true, Ordering::Relaxed);
}

/// Removes every installed observer (tests, shutdown).
pub fn clear_event_observers() {
    let mut obs = lock_observers();
    obs.clear();
    OBSERVING.store(false, Ordering::Relaxed);
}

fn notify_observers(line: &str) {
    for f in lock_observers().iter() {
        f(line);
    }
}

/// Builder for one structured event; construct via [`event`]. When
/// neither the trace sink, the flight recorder, nor the stderr logger
/// would take the event, every method is a no-op on an empty builder
/// (no allocation).
#[must_use = "call .emit() to record the event"]
pub struct EventBuilder {
    json: Option<String>,
    text: Option<String>,
    to_trace: bool,
    to_flight: bool,
    to_obs: bool,
}

/// Starts an event of `kind` at `level`.
///
/// ```
/// use sfn_obs::Level;
/// sfn_obs::event(Level::Info, "scheduler.decision")
///     .field_u64("step", 20)
///     .field_f64("predicted_loss", 0.012)
///     .field_str("action", "keep")
///     .emit();
/// ```
pub fn event(level: Level, kind: &str) -> EventBuilder {
    crate::init();
    let to_trace = tracing_enabled_raw() && level != Level::Off;
    let to_flight = flight::capture_raw(level);
    let to_obs = observing_raw() && level != Level::Off;
    let to_log = crate::log_enabled_raw(level);
    let json = (to_trace || to_flight || to_obs).then(|| {
        let mut s = String::with_capacity(160);
        s.push_str("{\"ts\":");
        json::push_f64(&mut s, crate::uptime());
        s.push_str(",\"level\":\"");
        s.push_str(level.as_str());
        s.push_str("\",\"kind\":\"");
        json::escape_into(&mut s, kind);
        s.push('"');
        s
    });
    let text = to_log.then(|| format!("[sfn {}] {}", level.as_str(), kind));
    EventBuilder { json, text, to_trace, to_flight, to_obs }
}

impl EventBuilder {
    fn key(&mut self, key: &str) {
        if let Some(j) = self.json.as_mut() {
            j.push_str(",\"");
            json::escape_into(j, key);
            j.push_str("\":");
        }
    }

    /// Adds a float field (`null` in JSON if non-finite).
    pub fn field_f64(mut self, key: &str, v: f64) -> Self {
        self.key(key);
        if let Some(j) = self.json.as_mut() {
            json::push_f64(j, v);
        }
        if let Some(t) = self.text.as_mut() {
            let _ = write!(t, " {key}={v}");
        }
        self
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(mut self, key: &str, v: u64) -> Self {
        self.key(key);
        if let Some(j) = self.json.as_mut() {
            let _ = write!(j, "{v}");
        }
        if let Some(t) = self.text.as_mut() {
            let _ = write!(t, " {key}={v}");
        }
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(mut self, key: &str, v: bool) -> Self {
        self.key(key);
        if let Some(j) = self.json.as_mut() {
            j.push_str(if v { "true" } else { "false" });
        }
        if let Some(t) = self.text.as_mut() {
            let _ = write!(t, " {key}={v}");
        }
        self
    }

    /// Adds a string field.
    pub fn field_str(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        if let Some(j) = self.json.as_mut() {
            j.push('"');
            json::escape_into(j, v);
            j.push('"');
        }
        if let Some(t) = self.text.as_mut() {
            let _ = write!(t, " {key}={v}");
        }
        self
    }

    /// Writes the event to the active outputs.
    pub fn emit(self) {
        if let Some(mut j) = self.json {
            j.push('}');
            if self.to_trace {
                write_trace_line(&j);
            }
            if self.to_obs {
                notify_observers(&j);
            }
            if self.to_flight {
                flight::record(j);
            }
        }
        if let Some(t) = self.text {
            eprintln!("{t}");
        }
    }
}

/// Logs a plain message at `level` (stderr + trace sink + flight
/// recorder).
pub fn log(level: Level, msg: &str) {
    crate::init();
    if crate::log_enabled_raw(level) {
        eprintln!("[sfn {}] {msg}", level.as_str());
    }
    let to_trace = tracing_enabled_raw() && level != Level::Off;
    let to_flight = flight::capture_raw(level);
    let to_obs = observing_raw() && level != Level::Off;
    if to_trace || to_flight || to_obs {
        let mut s = String::with_capacity(96);
        s.push_str("{\"ts\":");
        json::push_f64(&mut s, crate::uptime());
        s.push_str(",\"level\":\"");
        s.push_str(level.as_str());
        s.push_str("\",\"kind\":\"log\",\"msg\":\"");
        json::escape_into(&mut s, msg);
        s.push_str("\"}");
        if to_trace {
            write_trace_line(&s);
        }
        if to_obs {
            notify_observers(&s);
        }
        if to_flight {
            flight::record(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;
    use std::sync::Arc;

    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn new() -> Self {
            Self(Arc::new(Mutex::new(Vec::new())))
        }

        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn events_write_jsonl_records() {
        let _guard = test_lock::hold();
        let buf = SharedBuf::new();
        set_trace_writer(Some(Box::new(buf.clone())));
        event(Level::Info, "test.event")
            .field_u64("step", 20)
            .field_f64("predicted_loss", 0.0125)
            .field_f64("bad", f64::NAN)
            .field_bool("unhealthy", false)
            .field_str("action", "switch \"up\"")
            .emit();
        log(Level::Trace, "hello trace");
        flush_trace();
        set_trace_writer(None);

        let text = buf.contents();
        let line = text
            .lines()
            .find(|l| l.contains("\"kind\":\"test.event\""))
            .expect("event line present");
        assert!(line.starts_with("{\"ts\":"), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert!(line.contains("\"level\":\"info\""), "{line}");
        assert!(line.contains("\"step\":20"), "{line}");
        assert!(line.contains("\"predicted_loss\":0.0125"), "{line}");
        assert!(line.contains("\"bad\":null"), "{line}");
        assert!(line.contains("\"unhealthy\":false"), "{line}");
        assert!(line.contains("\"action\":\"switch \\\"up\\\"\""), "{line}");
        assert!(
            text.lines().any(|l| l.contains("\"kind\":\"log\"") && l.contains("hello trace")),
            "{text}"
        );
    }

    #[test]
    fn disabled_events_build_nothing() {
        let _guard = test_lock::hold();
        set_trace_writer(None);
        // Well below the default warn threshold.
        let b = event(Level::Trace, "test.invisible").field_u64("x", 1);
        assert!(b.json.is_none() && b.text.is_none());
        b.emit();
    }

    #[test]
    fn observers_receive_every_event_line() {
        let _guard = test_lock::hold();
        set_trace_writer(None);
        let seen = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = seen.clone();
        add_event_observer(Box::new(move |line| {
            sink.lock().unwrap().push(line.to_string());
        }));
        // With only an observer installed, even Trace-level events must
        // be built and fanned out (the pre-flight check agrees).
        assert!(crate::event_enabled(Level::Trace));
        event(Level::Trace, "test.observer").field_u64("x", 7).emit();
        log(Level::Error, "observed log line");
        clear_event_observers();
        assert!(!observing());
        // After clearing, emissions no longer reach the old observer.
        event(Level::Error, "test.unobserved").emit();

        let lines = seen.lock().unwrap().clone();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"kind\":\"test.observer\"") && lines[0].contains("\"x\":7"));
        assert!(lines[1].contains("\"kind\":\"log\"") && lines[1].contains("observed log line"));
    }

    #[test]
    fn tracing_flag_follows_writer() {
        let _guard = test_lock::hold();
        assert!(!tracing_enabled_raw());
        set_trace_writer(Some(Box::new(SharedBuf::new())));
        assert!(tracing_enabled_raw());
        set_trace_writer(None);
        assert!(!tracing_enabled_raw());
    }
}
