//! The flight recorder: an always-on ring buffer of the most recent
//! structured events, dumped to a crash report when something dies.
//!
//! `SFN_TRACE_FILE` tracing is opt-in and usually *off* — which is
//! exactly when a post-mortem needs it most. The flight recorder keeps
//! the last [`capacity`] events (`info` severity and above; `debug`/
//! `trace` events are per-operation records too hot for an always-on
//! path) in fixed storage so that a panic, a simulation blow-up or a
//! sanitizer trip can still produce a JSONL crash report of the moments
//! leading up to the failure.
//!
//! Writes are lock-free in the index: a writer claims a slot with one
//! `fetch_add` and only locks that single slot's cell to swap the
//! record in, so concurrent writers never contend unless they collide
//! on the same slot a full lap apart.
//!
//! # Configuration
//!
//! | variable | effect |
//! |---|---|
//! | `SFN_CRASH_FILE` | crash-report path; setting it installs the panic hook |
//!
//! The crash path can also be set programmatically with
//! [`set_crash_file`] / [`install_crash_handler`] (the bench harness
//! does). [`note_incident`] is the non-panic trigger: the simulation's
//! blow-up guard and state sanitizer call it so a survivable corruption
//! still leaves a report behind.

use crate::Level;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock};

/// Events retained by the ring buffer.
pub const CAPACITY: usize = 256;

static ENABLED: AtomicBool = AtomicBool::new(true);
static HEAD: AtomicUsize = AtomicUsize::new(0);
static INCIDENTS: AtomicU64 = AtomicU64::new(0);
static HOOK: Once = Once::new();

fn slots() -> &'static [Mutex<Option<String>>; CAPACITY] {
    static SLOTS: OnceLock<[Mutex<Option<String>>; CAPACITY]> = OnceLock::new();
    SLOTS.get_or_init(|| std::array::from_fn(|_| Mutex::new(None)))
}

fn crash_path() -> &'static Mutex<Option<String>> {
    static PATH: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    PATH.get_or_init(|| Mutex::new(None))
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Number of events retained (the ring capacity).
pub fn capacity() -> usize {
    CAPACITY
}

/// True if the recorder is capturing events.
pub fn flight_enabled() -> bool {
    crate::init();
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the recorder on or off (it is on by default).
pub fn set_flight_enabled(on: bool) {
    crate::init();
    ENABLED.store(on, Ordering::Relaxed);
}

/// True if an event at `level` would be captured — the recorder keeps
/// `info` and above; `debug`/`trace` are too hot for an always-on path.
#[inline]
pub(crate) fn capture_raw(level: Level) -> bool {
    ENABLED.load(Ordering::Relaxed)
        && matches!(level, Level::Error | Level::Warn | Level::Info)
}

/// Stores one already-serialised JSONL record.
pub(crate) fn record(line: String) {
    let i = HEAD.fetch_add(1, Ordering::Relaxed) % CAPACITY;
    *lock(&slots()[i]) = Some(line);
}

/// Incidents reported via [`note_incident`] so far.
pub fn incident_count() -> u64 {
    INCIDENTS.load(Ordering::Relaxed)
}

/// The retained events, oldest first.
pub fn snapshot() -> Vec<String> {
    let head = HEAD.load(Ordering::Relaxed);
    let slots = slots();
    let mut out = Vec::new();
    // With < CAPACITY events recorded the tail slots are still None and
    // are skipped; after wrap-around the scan starts at the oldest slot.
    for k in 0..CAPACITY {
        let i = (head + k) % CAPACITY;
        if let Some(line) = lock(&slots[i]).as_ref() {
            out.push(line.clone());
        }
    }
    out
}

/// Empties the ring (tests and between independent in-process runs).
pub fn clear() {
    for slot in slots() {
        *lock(slot) = None;
    }
    HEAD.store(0, Ordering::Relaxed);
}

/// Renders the crash report: one header record naming the `reason`,
/// then the retained events as JSONL, oldest first.
pub fn crash_report(reason: &str) -> String {
    let events = snapshot();
    let mut out = String::with_capacity(64 + events.iter().map(|l| l.len() + 1).sum::<usize>());
    out.push_str("{\"ts\":");
    crate::json::push_f64(&mut out, crate::uptime());
    out.push_str(",\"kind\":\"crash.report\",\"reason\":\"");
    crate::json::escape_into(&mut out, reason);
    out.push_str("\",\"events\":");
    let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{}", events.len()));
    out.push_str("}\n");
    for line in &events {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Writes the crash report for `reason` to `path`.
pub fn dump_to(path: &str, reason: &str) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(crash_report(reason).as_bytes())?;
    file.flush()
}

/// Sets (or with `None` clears) the crash-report path used by
/// [`note_incident`] and the panic hook.
pub fn set_crash_file(path: Option<&str>) {
    *lock(crash_path()) = path.map(str::to_string);
}

/// The configured crash-report path, if any.
pub fn crash_file() -> Option<String> {
    lock(crash_path()).clone()
}

/// Reports a non-panic incident (blow-up guard, state sanitizer): bumps
/// the `flight.incidents` counter and, when a crash path is configured,
/// writes the report there. Failures to write are warned about, never
/// propagated — the recorder must not be the thing that kills the host.
pub fn note_incident(reason: &str) {
    INCIDENTS.fetch_add(1, Ordering::Relaxed);
    crate::counter_add("flight.incidents", 1);
    let Some(path) = crash_file() else { return };
    if let Err(e) = dump_to(&path, reason) {
        eprintln!("[sfn warn] cannot write crash report {path:?}: {e}");
    }
}

/// Installs a panic hook that writes the flight-recorder crash report
/// before the default hook runs. The report path is the configured
/// crash file (see [`set_crash_file`] / `SFN_CRASH_FILE`), defaulting
/// to `sfn_crash_report.jsonl`. Idempotent.
pub fn install_crash_handler() {
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let reason = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_string)
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            let path = crash_file().unwrap_or_else(|| "sfn_crash_report.jsonl".to_string());
            if let Err(e) = dump_to(&path, &format!("panic: {reason}")) {
                eprintln!("[sfn warn] cannot write crash report {path:?}: {e}");
            } else {
                eprintln!("[sfn error] crash report written to {path}");
            }
            previous(info);
        }));
    });
}

pub(crate) fn init_from_env() {
    if let Ok(path) = std::env::var("SFN_CRASH_FILE") {
        if !path.is_empty() {
            set_crash_file(Some(&path));
            install_crash_handler();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn ring_keeps_the_last_capacity_events_in_order() {
        let _guard = test_lock::hold();
        clear();
        for i in 0..CAPACITY + 10 {
            record(format!("{{\"n\":{i}}}"));
        }
        let snap = snapshot();
        assert_eq!(snap.len(), CAPACITY);
        assert_eq!(snap.first().unwrap(), &format!("{{\"n\":{}}}", 10));
        assert_eq!(snap.last().unwrap(), &format!("{{\"n\":{}}}", CAPACITY + 9));
        clear();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn partial_fill_preserves_order_without_gaps() {
        let _guard = test_lock::hold();
        clear();
        for i in 0..5 {
            record(format!("{{\"n\":{i}}}"));
        }
        let snap = snapshot();
        assert_eq!(snap.len(), 5);
        assert_eq!(snap[0], "{\"n\":0}");
        assert_eq!(snap[4], "{\"n\":4}");
        clear();
    }

    #[test]
    fn events_feed_the_recorder_at_info_and_above() {
        let _guard = test_lock::hold();
        clear();
        set_flight_enabled(true);
        crate::event(Level::Info, "test.flight.info").field_u64("x", 1).emit();
        crate::event(Level::Warn, "test.flight.warn").emit();
        crate::event(Level::Trace, "test.flight.trace").emit();
        let snap = snapshot().join("\n");
        assert!(snap.contains("test.flight.info"), "{snap}");
        assert!(snap.contains("\"x\":1"), "{snap}");
        assert!(snap.contains("test.flight.warn"), "{snap}");
        assert!(!snap.contains("test.flight.trace"), "{snap}");
        clear();
    }

    #[test]
    fn disabled_recorder_captures_nothing() {
        let _guard = test_lock::hold();
        clear();
        set_flight_enabled(false);
        crate::event(Level::Error, "test.flight.disabled").emit();
        assert!(!snapshot().iter().any(|l| l.contains("test.flight.disabled")));
        set_flight_enabled(true);
        clear();
    }

    #[test]
    fn crash_report_carries_header_and_events() {
        let _guard = test_lock::hold();
        clear();
        set_flight_enabled(true);
        crate::event(Level::Error, "test.flight.blowup").field_f64("div_norm", f64::NAN).emit();
        let report = crash_report("sim.blowup");
        let mut lines = report.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("\"kind\":\"crash.report\""), "{header}");
        assert!(header.contains("\"reason\":\"sim.blowup\""), "{header}");
        assert!(header.contains("\"events\":1"), "{header}");
        assert!(lines.next().unwrap().contains("test.flight.blowup"));
        // Every line of the report is parseable JSON.
        for line in report.lines() {
            assert!(crate::json::parse(line).is_ok(), "unparseable: {line}");
        }
        clear();
    }

    #[test]
    fn note_incident_writes_the_configured_file() {
        let _guard = test_lock::hold();
        clear();
        set_flight_enabled(true);
        crate::event(Level::Warn, "test.flight.incident_context").emit();
        let path = std::env::temp_dir().join("sfn_obs_flight_incident_test.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        set_crash_file(Some(&path_str));
        let before = incident_count();
        note_incident("sanitizer");
        assert_eq!(incident_count(), before + 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"reason\":\"sanitizer\""), "{text}");
        assert!(text.contains("test.flight.incident_context"), "{text}");
        set_crash_file(None);
        let _ = std::fs::remove_file(&path);
        clear();
    }

    #[test]
    fn par_workers_hammering_the_ring_leave_no_torn_records() {
        let _guard = test_lock::hold();
        clear();
        set_flight_enabled(true);
        let writes = 3 * CAPACITY;
        // Real sfn-par pool helpers even on a 1-core runner.
        sfn_par::with_threads(8, || {
            sfn_par::map_range(writes, |i| {
                crate::event(Level::Info, "test.flight.par")
                    .field_u64("w", i as u64)
                    .emit();
            })
        });
        let report = crash_report("par-hammer");
        let mut events = 0;
        let mut seen = std::collections::BTreeSet::new();
        for (n, line) in report.lines().enumerate() {
            // Untorn: every retained record is complete, parseable JSON
            // with the exact fields one writer produced.
            let v = crate::json::parse(line).unwrap_or_else(|e| panic!("torn record {line:?}: {e:?}"));
            if n == 0 {
                continue; // crash.report header
            }
            events += 1;
            assert_eq!(v.get("kind").and_then(crate::json::Value::as_str), Some("test.flight.par"), "{line}");
            let w = v.get("w").and_then(crate::json::Value::as_u64).expect("w field intact");
            assert!((w as usize) < writes, "{line}");
            assert!(seen.insert(w), "record {w} retained twice");
        }
        // Full: with 3×CAPACITY writes the ring holds exactly CAPACITY
        // distinct records — concurrent claims never dropped a slot.
        assert_eq!(events, CAPACITY);
        clear();
    }

    #[test]
    fn concurrent_records_never_lose_the_ring_shape() {
        let _guard = test_lock::hold();
        clear();
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for i in 0..200 {
                        record(format!("{{\"t\":{t},\"i\":{i}}}"));
                    }
                });
            }
        });
        let snap = snapshot();
        assert_eq!(snap.len(), CAPACITY);
        assert!(snap.iter().all(|l| crate::json::parse(l).is_ok()));
        clear();
    }
}
