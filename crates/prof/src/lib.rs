//! `sfn-prof` — kernel-level work accounting on top of `sfn-obs`.
//!
//! The paper's argument is a performance trade (approximate the
//! projection to cut wall-clock time), and the SIMD/batching roadmap
//! needs to know *which* kernels are worth vectorising. Stage spans
//! answer "where did the time go"; this crate answers "what was the
//! machine doing while it went":
//!
//! * [`KernelScope`] — an RAII scope around one kernel invocation that
//!   records elapsed nanoseconds plus caller-supplied FLOP and byte
//!   counts (analytic, like the solvers' existing `SolveStats::flops`),
//!   and derives arithmetic intensity from them.
//! * [`record_work`] — the worker-side entry point: `sfn-par` threads
//!   push their share of the work into per-thread lock-free ring
//!   buffers; the owning scope merges them at exit (after the scoped
//!   threads have joined, so no records race the merge).
//! * [`CountingAlloc`] — an opt-in (`SFN_PROF_ALLOC=1`) `GlobalAlloc`
//!   wrapper tallying allocation count/bytes and an approximate peak
//!   per active kernel scope.
//! * [`roofline`] — a startup calibration micro-benchmark estimating
//!   peak FLOP/s and stream bandwidth, so each kernel can be classified
//!   compute- or memory-bound against the machine balance.
//! * [`ProfileReport`] — the `sfn-prof/kernels@1` document: one run's
//!   [`KernelTotals`] per kernel, with its one JSON codec and the
//!   roofline table `sfn-trace profile` prints.
//!
//! # Kernel naming
//!
//! Kernel names are dotted paths: the first segment is the logical
//! kernel, later segments name the dispatched implementation —
//! `conv2d.direct`, `advect.avx2`, `mic0.build`.
//! Aggregating tools sum by first-segment prefix to compare logical
//! kernels across SIMD levels (`SFN_SIMD=scalar` vs `auto` profiles),
//! and keep the full name to attribute work to one code path.
//!
//! # Configuration
//!
//! | variable | effect |
//! |---|---|
//! | `SFN_PROF` | `1` enables kernel accounting (off by default) |
//! | `SFN_PROF_ALLOC` | `1` additionally tracks allocations (needs [`CountingAlloc`] installed as `#[global_allocator]`) |
//!
//! # Overhead
//!
//! Everything is off by default. A disabled [`KernelScope::enter`] or
//! [`record_work`] is a couple of relaxed atomic loads — no
//! `Instant::now`, no allocation, no locking — so the instrumented hot
//! paths cost nothing when profiling is off (the workspace's overhead
//! guard test holds this below 2% of a 64² reference run). When
//! enabled, a scope exit takes one short mutex to fold its totals into
//! the global per-kernel table.
//!
//! Like `sfn-obs`, the crate is dependency-free.

#![warn(missing_docs)]

mod alloc;
mod report;
mod ring;
pub mod roofline;

pub use crate::alloc::{alloc_tracking, set_alloc_tracking, CountingAlloc};
pub use crate::report::{ProfileReport, SCHEMA};
pub use crate::ring::dropped_records;
pub use crate::roofline::{calibrate, calibration, classify, intensity, Bound, Calibration};

use sfn_obs::json::Value;
use sfn_obs::Level;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once};
use std::time::Instant;

static INIT: Once = Once::new();
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Next scope epoch to hand out (0 means "no scope active").
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);
/// Epoch of the innermost active scope; worker records are tagged with
/// it so nested scopes attribute work correctly.
static ACTIVE_EPOCH: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Mutex<BTreeMap<&'static str, KernelTotals>> = Mutex::new(BTreeMap::new());

/// Applies the `SFN_PROF` / `SFN_PROF_ALLOC` environment configuration.
/// Called lazily by every entry point; calling it explicitly (e.g.
/// first thing in `main`) only pins *when* the environment is read.
pub fn init() {
    INIT.call_once(|| {
        use sfn_obs::env::{knob, process, Flag};
        sfn_obs::init();
        if knob(&process, "SFN_PROF", Flag(false)).0 {
            ENABLED.store(true, Ordering::Relaxed);
        }
        if knob(&process, "SFN_PROF_ALLOC", Flag(false)).0 {
            alloc::set_tracking(true);
        }
    });
}

/// True if kernel accounting is active.
#[inline]
pub fn enabled() -> bool {
    init();
    ENABLED.load(Ordering::Relaxed)
}

/// Turns kernel accounting on or off programmatically (tests and the
/// bench driver use this instead of the environment).
pub fn set_enabled(on: bool) {
    init();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Accumulated work of one kernel across all its invocations.
///
/// All counters saturate instead of wrapping: a corrupt or adversarial
/// count can pin a kernel at `u64::MAX` but can never roll a large
/// total over into a small one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelTotals {
    /// Completed scope invocations.
    pub calls: u64,
    /// Total elapsed nanoseconds across invocations.
    pub ns: u64,
    /// Total floating-point operations (analytic counts).
    pub flops: u64,
    /// Total bytes read (analytic traffic model).
    pub bytes_read: u64,
    /// Total bytes written (analytic traffic model).
    pub bytes_written: u64,
    /// Heap allocations made while the kernel's scope was innermost
    /// (zero unless `SFN_PROF_ALLOC=1` and [`CountingAlloc`] is the
    /// global allocator).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Largest per-invocation growth of live heap bytes (approximate;
    /// see DESIGN.md §11 for the caveats).
    pub peak_bytes: u64,
}

impl KernelTotals {
    /// `(JSON key, value)` of the raw counters, in the order every
    /// writer (`prof.kernel` events, `sfn-prof/kernels@1` rows) lays
    /// them out.
    pub fn fields(&self) -> [(&'static str, u64); 8] {
        [
            ("calls", self.calls),
            ("ns", self.ns),
            ("flops", self.flops),
            ("bytes_read", self.bytes_read),
            ("bytes_written", self.bytes_written),
            ("allocs", self.allocs),
            ("alloc_bytes", self.alloc_bytes),
            ("peak_bytes", self.peak_bytes),
        ]
    }

    /// Reads the raw counters out of an object — a `prof.kernel` trace
    /// event or one row of an `sfn-prof/kernels@1` document. An absent
    /// or non-integer counter reads as 0.
    pub fn from_fields(v: &Value) -> KernelTotals {
        let [calls, ns, flops, bytes_read, bytes_written, allocs, alloc_bytes, peak_bytes] =
            KernelTotals::default().fields().map(|(key, _)| v.get(key).and_then(Value::as_u64).unwrap_or(0));
        KernelTotals { calls, ns, flops, bytes_read, bytes_written, allocs, alloc_bytes, peak_bytes }
    }

    /// Folds another totals record into this one (saturating).
    pub fn merge(&mut self, o: &KernelTotals) {
        self.calls = self.calls.saturating_add(o.calls);
        self.ns = self.ns.saturating_add(o.ns);
        self.flops = self.flops.saturating_add(o.flops);
        self.bytes_read = self.bytes_read.saturating_add(o.bytes_read);
        self.bytes_written = self.bytes_written.saturating_add(o.bytes_written);
        self.allocs = self.allocs.saturating_add(o.allocs);
        self.alloc_bytes = self.alloc_bytes.saturating_add(o.alloc_bytes);
        self.peak_bytes = self.peak_bytes.max(o.peak_bytes);
    }

    /// Total elapsed seconds.
    pub fn secs(&self) -> f64 {
        self.ns as f64 / 1e9
    }

    /// Total bytes moved (read + written, saturating).
    pub fn bytes(&self) -> u64 {
        self.bytes_read.saturating_add(self.bytes_written)
    }

    /// Achieved GFLOP/s (0 when no time was recorded).
    pub fn gflops(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.flops as f64 / self.secs() / 1e9
        }
    }

    /// Achieved GB/s (0 when no time was recorded).
    pub fn gbps(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.bytes() as f64 / self.secs() / 1e9
        }
    }

    /// Arithmetic intensity in FLOPs per byte (see [`intensity`] for
    /// the zero-byte / zero-FLOP conventions).
    pub fn intensity(&self) -> f64 {
        intensity(self.flops, self.bytes())
    }
}

/// Records `flops` floating-point operations and `bytes_read` /
/// `bytes_written` bytes of traffic against the innermost active
/// [`KernelScope`], from any thread.
///
/// This is the `sfn-par` worker entry point: each worker pushes into
/// its own lock-free ring stripe, and the owning scope merges the
/// stripes when it exits. The scope must outlive the workers' calls:
/// guaranteed for `sfn-par`, whose pool lets no entry point return
/// until every helper has left the closure (join-before-return), so a
/// scope entered before the fan-out drains complete stripes. A no-op
/// when profiling is disabled or no scope is active.
#[inline]
pub fn record_work(flops: u64, bytes_read: u64, bytes_written: u64) {
    if !enabled() {
        return;
    }
    let epoch = ACTIVE_EPOCH.load(Ordering::Relaxed);
    if epoch == 0 {
        return;
    }
    ring::push(epoch, flops, bytes_read, bytes_written);
}

/// RAII accounting scope around one kernel invocation.
///
/// Also opens an `sfn-obs` span of the same name, so kernels show up in
/// the stage table and their per-invocation `prof.span` trace events
/// carry the full hierarchical path (`step/projection/pcg/mic0`) for
/// `sfn-trace flame`.
pub struct KernelScope {
    name: &'static str,
    start: Option<Instant>,
    epoch: u64,
    prev_epoch: u64,
    flops: Cell<u64>,
    bytes_read: Cell<u64>,
    bytes_written: Cell<u64>,
    alloc0: alloc::AllocSnapshot,
    _span: sfn_obs::SpanGuard,
}

impl KernelScope {
    /// Enters an accounting scope for kernel `name`. Inert (a couple of
    /// relaxed atomic loads) when profiling is disabled.
    #[inline]
    pub fn enter(name: &'static str) -> KernelScope {
        let span = sfn_obs::SpanGuard::enter(name);
        if !enabled() {
            return KernelScope {
                name,
                start: None,
                epoch: 0,
                prev_epoch: 0,
                flops: Cell::new(0),
                bytes_read: Cell::new(0),
                bytes_written: Cell::new(0),
                alloc0: alloc::AllocSnapshot::default(),
                _span: span,
            };
        }
        let epoch = NEXT_EPOCH.fetch_add(1, Ordering::Relaxed);
        let prev_epoch = ACTIVE_EPOCH.swap(epoch, Ordering::Relaxed);
        KernelScope {
            name,
            start: Some(Instant::now()),
            epoch,
            prev_epoch,
            flops: Cell::new(0),
            bytes_read: Cell::new(0),
            bytes_written: Cell::new(0),
            alloc0: alloc::snapshot(),
            _span: span,
        }
    }

    /// True when this scope is actually accounting (profiling was
    /// enabled at entry) — callers can skip computing expensive counts.
    #[inline]
    pub fn active(&self) -> bool {
        self.start.is_some()
    }

    /// Adds work performed on the scope's own thread (saturating).
    #[inline]
    pub fn record(&self, flops: u64, bytes_read: u64, bytes_written: u64) {
        if self.start.is_some() {
            self.flops.set(self.flops.get().saturating_add(flops));
            self.bytes_read.set(self.bytes_read.get().saturating_add(bytes_read));
            self.bytes_written.set(self.bytes_written.get().saturating_add(bytes_written));
        }
    }
}

impl Drop for KernelScope {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        ACTIVE_EPOCH.store(self.prev_epoch, Ordering::Relaxed);
        let (wf, wr, ww) = ring::drain(self.epoch);
        let da = alloc::snapshot().delta_since(&self.alloc0);
        let totals = KernelTotals {
            calls: 1,
            ns,
            flops: self.flops.get().saturating_add(wf),
            bytes_read: self.bytes_read.get().saturating_add(wr),
            bytes_written: self.bytes_written.get().saturating_add(ww),
            allocs: da.allocs,
            alloc_bytes: da.bytes,
            peak_bytes: da.peak,
        };
        {
            let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
            reg.entry(self.name).or_default().merge(&totals);
        }
        // Per-invocation record for `sfn-trace flame`; a no-op builder
        // unless a trace sink (or debug-level stderr) is active.
        if sfn_obs::event_enabled(Level::Debug) {
            let path = sfn_obs::current_span_path();
            let path = if path.is_empty() { self.name.to_string() } else { path };
            sfn_obs::event(Level::Debug, "prof.span")
                .field_str("kernel", self.name)
                .field_str("span", &path)
                .field_u64("dur_ns", ns)
                .field_u64("flops", totals.flops)
                .field_u64("bytes", totals.bytes())
                .emit();
        }
    }
}

/// Snapshot of the per-kernel totals, sorted by kernel name.
pub fn snapshot() -> Vec<(&'static str, KernelTotals)> {
    let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    reg.iter().map(|(k, v)| (*k, *v)).collect()
}

/// Clears the per-kernel totals and the dropped-record counter.
pub fn reset() {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).clear();
    ring::reset_dropped();
}

/// Emits the accumulated totals as `prof.kernel` trace events (one per
/// kernel) plus one `prof.calibration` event, so a trace file is
/// self-contained for `sfn-trace profile` / `diff`. Each event carries
/// cumulative totals, so readers keep the last emission per kernel. A
/// no-op when profiling is disabled.
pub fn emit_summary() {
    if !enabled() {
        return;
    }
    let cal = calibration();
    sfn_obs::event(Level::Info, "prof.calibration")
        .field_f64("peak_gflops", cal.peak_gflops)
        .field_f64("stream_gbps", cal.stream_gbps)
        .emit();
    for (name, t) in snapshot() {
        t.fields()
            .into_iter()
            .fold(sfn_obs::event(Level::Info, "prof.kernel").field_str("kernel", name), |e, (k, v)| {
                e.field_u64(k, v)
            })
            .emit();
    }
    let dropped = dropped_records();
    if dropped > 0 {
        sfn_obs::event(Level::Warn, "prof.dropped")
            .field_u64("records", dropped)
            .emit();
    }
}

/// The accumulated totals as a [`ProfileReport`] over a run of
/// `duration_secs` (the `kernel_summary` section of
/// `run_all_summary.json`).
pub fn summary(duration_secs: f64) -> ProfileReport {
    ProfileReport {
        duration_secs,
        calibration: calibration(),
        kernels: snapshot().into_iter().map(|(name, t)| (name.to_string(), t)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Prof state is process-global; tests that toggle it serialise here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn hold() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        let _g = hold();
        set_enabled(false);
        reset();
        {
            let scope = KernelScope::enter("test_disabled");
            scope.record(100, 200, 300);
            record_work(1, 2, 3);
            assert!(!scope.active());
        }
        assert!(snapshot().is_empty());
    }

    #[test]
    fn scope_accumulates_own_thread_work() {
        let _g = hold();
        set_enabled(true);
        reset();
        {
            let scope = KernelScope::enter("test_own");
            scope.record(1000, 64, 32);
            scope.record(500, 16, 8);
        }
        set_enabled(false);
        let snap = snapshot();
        let (_, t) = snap.iter().find(|(n, _)| *n == "test_own").expect("kernel recorded");
        assert_eq!(t.calls, 1);
        assert_eq!(t.flops, 1500);
        assert_eq!(t.bytes_read, 80);
        assert_eq!(t.bytes_written, 40);
        assert!(t.ns > 0);
        reset();
    }

    #[test]
    fn dotted_per_path_names_stay_distinct_and_prefix_aggregable() {
        // The SIMD dispatchers record one entry per code path
        // (`advect` vs `advect.avx2`); consumers sum by
        // first-segment prefix to compare logical kernels.
        let _g = hold();
        set_enabled(true);
        reset();
        {
            let s = KernelScope::enter("test_k.direct");
            s.record(100, 0, 0);
        }
        {
            let s = KernelScope::enter("test_k.gemm.avx2");
            s.record(40, 0, 0);
        }
        set_enabled(false);
        let snap = snapshot();
        assert!(snap.iter().any(|(n, t)| *n == "test_k.direct" && t.flops == 100));
        assert!(snap.iter().any(|(n, t)| *n == "test_k.gemm.avx2" && t.flops == 40));
        let total: u64 = snap
            .iter()
            .filter(|(n, _)| *n == "test_k" || n.starts_with("test_k."))
            .map(|(_, t)| t.flops)
            .sum();
        assert_eq!(total, 140);
        reset();
    }

    #[test]
    fn nested_scopes_attribute_worker_records_to_the_innermost() {
        let _g = hold();
        set_enabled(true);
        reset();
        {
            let outer = KernelScope::enter("test_outer");
            record_work(10, 0, 0);
            {
                let _inner = KernelScope::enter("test_inner");
                record_work(100, 0, 0);
            }
            record_work(1, 0, 0);
            drop(outer);
        }
        set_enabled(false);
        let snap = snapshot();
        let get = |name: &str| snap.iter().find(|(n, _)| *n == name).map(|(_, t)| *t).unwrap();
        assert_eq!(get("test_outer").flops, 11);
        assert_eq!(get("test_inner").flops, 100);
        reset();
    }

    #[test]
    fn parallel_workers_merge_without_loss() {
        let _g = hold();
        set_enabled(true);
        reset();
        let n = 500;
        {
            let _scope = KernelScope::enter("test_par");
            // Real pool helpers even on a 1-core runner.
            let out = sfn_par::with_threads(8, || {
                sfn_par::map_range(n, |i| {
                    record_work(7, 3, 1);
                    i
                })
            });
            assert_eq!(out.len(), n);
        }
        set_enabled(false);
        let snap = snapshot();
        let (_, t) = snap.iter().find(|(n, _)| *n == "test_par").expect("kernel recorded");
        assert_eq!(dropped_records(), 0);
        assert_eq!(t.flops, 7 * n as u64);
        assert_eq!(t.bytes_read, 3 * n as u64);
        assert_eq!(t.bytes_written, n as u64);
        reset();
    }

    #[test]
    fn totals_saturate_instead_of_wrapping() {
        let mut a = KernelTotals { flops: u64::MAX - 1, ..Default::default() };
        let b = KernelTotals { flops: 1000, ns: u64::MAX, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.flops, u64::MAX, "flops saturate");
        assert_eq!(a.ns, u64::MAX, "ns saturate");
        a.merge(&b);
        assert_eq!(a.flops, u64::MAX, "stay saturated");
        // Saturated counters still yield finite, ordered derived rates.
        assert!(a.gflops().is_finite());
        assert!(a.intensity() >= 0.0);
    }

    #[test]
    fn summary_lists_kernels() {
        let _g = hold();
        set_enabled(true);
        reset();
        {
            let scope = KernelScope::enter("test_json");
            scope.record(42, 8, 8);
        }
        let doc = summary(1.0).to_json();
        set_enabled(false);
        assert!(doc.contains("\"schema\":\"sfn-prof/kernels@1\""), "{doc}");
        assert!(doc.contains("\"name\":\"test_json\""), "{doc}");
        assert!(doc.contains("\"flops\":42"), "{doc}");
        assert!(doc.contains("\"bound\":"), "{doc}");
        reset();
    }
}
