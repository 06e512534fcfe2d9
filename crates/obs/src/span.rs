//! RAII timing scopes.
//!
//! [`SpanGuard`] (via the [`crate::span!`] macro) builds hierarchical
//! stage paths from a per-thread stack: a span named `"projection"`
//! opened inside a span named `"step"` aggregates under
//! `"step/projection"`. [`ScopedTimer`] is the flat variant that also
//! returns the measured [`Duration`] — the shared replacement for the
//! ad-hoc `Instant::now()` pairs that used to live in the scheduler and
//! the projectors.

use crate::report;
use std::cell::RefCell;
use std::time::{Duration, Instant};

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Opens a hierarchical timing span; the guard records the elapsed time
/// under the span's `/`-joined path when dropped.
///
/// ```
/// let _span = sfn_obs::span!("step/projection");
/// // ... timed work ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
}

/// RAII guard for one hierarchical timing span. When metrics are
/// disabled this is a no-op carrying no timestamp.
pub struct SpanGuard {
    start: Option<Instant>,
}

impl SpanGuard {
    /// Enters a span named `name` (prefer the [`crate::span!`] macro).
    #[inline]
    pub fn enter(name: &'static str) -> Self {
        if !crate::metrics_enabled() {
            return Self { start: None };
        }
        STACK.with(|s| s.borrow_mut().push(name));
        Self {
            start: Some(Instant::now()),
        }
    }
}

/// The `/`-joined path of the calling thread's open spans (empty when
/// none are open, e.g. with metrics disabled). `sfn-prof` stamps this
/// onto per-invocation kernel records so `sfn-trace flame` can rebuild
/// the call tree.
pub fn current_path() -> String {
    STACK.with(|s| s.borrow().join("/"))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed();
        let path = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        report::record_stage(&path, elapsed);
    }
}

/// A scoped timer that always measures (callers need the duration for
/// their own bookkeeping, e.g. `ProjectionOutcome::wall_time`) and
/// additionally aggregates into the stage table when metrics are
/// enabled.
///
/// [`ScopedTimer::stop`] consumes the timer and returns the elapsed
/// time; a timer dropped without `stop` still records its stage.
pub struct ScopedTimer {
    name: &'static str,
    start: Instant,
    armed: bool,
}

impl ScopedTimer {
    /// Starts timing stage `name`.
    #[inline]
    pub fn start(name: &'static str) -> Self {
        Self {
            name,
            start: Instant::now(),
            armed: true,
        }
    }

    /// Elapsed time so far, without stopping.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Stops the timer, records the stage, and returns the elapsed
    /// time.
    pub fn stop(mut self) -> Duration {
        self.armed = false;
        let elapsed = self.start.elapsed();
        if crate::metrics_enabled() {
            report::record_stage(self.name, elapsed);
        }
        elapsed
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        if self.armed && crate::metrics_enabled() {
            report::record_stage(self.name, self.start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn nested_spans_build_hierarchical_paths() {
        let _guard = test_lock::hold();
        crate::reset();
        crate::enable_metrics(true);
        {
            let _outer = crate::span!("test_span_outer");
            let _inner = crate::span!("inner");
            std::thread::sleep(Duration::from_millis(1));
        }
        let stages = crate::stage_summaries();
        let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"test_span_outer"), "stages: {names:?}");
        assert!(
            names.contains(&"test_span_outer/inner"),
            "stages: {names:?}"
        );
        let outer = stages.iter().find(|s| s.name == "test_span_outer").unwrap();
        assert_eq!(outer.calls, 1);
        assert!(outer.total_secs >= 1e-3);
        crate::enable_metrics(false);
        crate::reset();
    }

    #[test]
    fn scoped_timer_returns_elapsed_and_records() {
        let _guard = test_lock::hold();
        crate::reset();
        crate::enable_metrics(true);
        let t = ScopedTimer::start("test_span_timer");
        std::thread::sleep(Duration::from_millis(1));
        let d = t.stop();
        assert!(d >= Duration::from_millis(1));
        let stages = crate::stage_summaries();
        assert!(stages.iter().any(|s| s.name == "test_span_timer" && s.calls == 1));
        crate::enable_metrics(false);
        crate::reset();
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = test_lock::hold();
        crate::reset();
        crate::enable_metrics(false);
        {
            let _s = crate::span!("test_span_disabled");
        }
        let t = ScopedTimer::start("test_span_timer_disabled");
        let d = t.stop();
        assert!(d >= Duration::ZERO);
        assert!(crate::stage_summaries().is_empty());
    }

    #[test]
    fn spans_aggregate_across_threads() {
        let _guard = test_lock::hold();
        crate::reset();
        crate::enable_metrics(true);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let _span = crate::span!("test_span_mt");
                    }
                });
            }
        });
        let stages = crate::stage_summaries();
        let stats = stages.iter().find(|s| s.name == "test_span_mt").expect("stage recorded");
        assert_eq!(stats.calls, 200);
        crate::enable_metrics(false);
        crate::reset();
    }
}
