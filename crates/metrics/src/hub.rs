//! The metric hub: sliding-window quantile series, windowed counter
//! rates, gauges, and the roster/kernel/fault tallies the dashboard
//! renders.
//!
//! The hot path never touches this module. Samples are recorded into
//! `sfn-obs`'s lock-free counters and histograms (by existing
//! instrumentation, the event bridge, and [`crate::record_step`]); the
//! collector tick ([`Hub::collect_now`]) diffs those cumulative
//! aggregates once a second and files the per-tick deltas into ring
//! slots here. A window is then just the [`HistogramSnapshot::merge`]
//! of its live slots, computed at read (scrape) time.

use crate::slo::{self, SloConfig, SloState};
use sfn_obs::{bucket_floor, HistogramSnapshot, BUCKETS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Windowing, listener, and SLO configuration of a [`Hub`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Width of one ring slot in milliseconds.
    pub slot_millis: u64,
    /// Ring length; `slots × slot_millis` is the slow window (10 min
    /// by default).
    pub slots: usize,
    /// Slots making up the fast window (60 s by default).
    pub fast_slots: usize,
    /// Collector cadence in milliseconds.
    pub tick_millis: u64,
    /// Maximum concurrent HTTP connections; excess gets `503`.
    pub max_connections: usize,
    /// Declarative SLO objectives.
    pub slo: SloConfig,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            slot_millis: 10_000,
            slots: 60,
            fast_slots: 6,
            tick_millis: 1_000,
            max_connections: 8,
            slo: SloConfig::default(),
        }
    }
}

impl Config {
    /// Defaults with the `SFN_METRICS_SLOT_MS` slot width applied (a
    /// zero or malformed value keeps the default).
    pub fn from_env() -> Self {
        use std::num::NonZeroU64;
        let d = Config::default();
        let default_slot = NonZeroU64::new(d.slot_millis).unwrap_or(NonZeroU64::MIN);
        let slot = sfn_obs::env::knob(&sfn_obs::env::process, "SFN_METRICS_SLOT_MS", default_slot);
        Config { slot_millis: slot.get(), ..d }
    }

    /// Fast-window span in seconds.
    pub fn fast_window_secs(&self) -> f64 {
        (self.fast_slots as u64 * self.slot_millis) as f64 / 1e3
    }

    /// Slow-window span in seconds.
    pub fn slow_window_secs(&self) -> f64 {
        (self.slots as u64 * self.slot_millis) as f64 / 1e3
    }
}

/// Which sliding window to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// The short window (60 s at default config) — what alerts and
    /// `/healthz` react on.
    Fast,
    /// The long window (10 min at default config) — the confirmation
    /// window of the multi-window burn rule.
    Slow,
}

/// One ring slot: the merged deltas of one `slot_millis`-wide time
/// interval, tagged with the interval's absolute index so stale slots
/// are detected (and discarded) instead of wrapping into the next lap.
#[derive(Clone)]
struct Slot<T> {
    epoch: u64,
    value: T,
}

struct SeriesRing {
    slots: Vec<Option<Slot<HistogramSnapshot>>>,
}

impl SeriesRing {
    fn new(len: usize) -> Self {
        Self { slots: vec![None; len.max(1)] }
    }

    fn ingest(&mut self, delta: &HistogramSnapshot, epoch: u64) {
        let idx = (epoch % self.slots.len() as u64) as usize;
        match &mut self.slots[idx] {
            Some(slot) if slot.epoch == epoch => slot.value = slot.value.merge(delta),
            other => *other = Some(Slot { epoch, value: *delta }),
        }
    }

    /// Merge of the slots inside the last `window_slots` intervals
    /// ending at `epoch` (inclusive).
    fn window(&self, epoch: u64, window_slots: usize) -> HistogramSnapshot {
        let oldest = epoch.saturating_sub(window_slots.saturating_sub(1) as u64);
        let mut merged = HistogramSnapshot::empty();
        for slot in self.slots.iter().flatten() {
            if slot.epoch >= oldest && slot.epoch <= epoch {
                merged = merged.merge(&slot.value);
            }
        }
        merged
    }
}

struct CounterRing {
    slots: Vec<Option<Slot<u64>>>,
}

impl CounterRing {
    fn new(len: usize) -> Self {
        Self { slots: vec![None; len.max(1)] }
    }

    fn ingest(&mut self, delta: u64, epoch: u64) {
        let idx = (epoch % self.slots.len() as u64) as usize;
        match &mut self.slots[idx] {
            Some(slot) if slot.epoch == epoch => slot.value = slot.value.saturating_add(delta),
            other => *other = Some(Slot { epoch, value: delta }),
        }
    }

    fn window(&self, epoch: u64, window_slots: usize) -> u64 {
        let oldest = epoch.saturating_sub(window_slots.saturating_sub(1) as u64);
        self.slots
            .iter()
            .flatten()
            .filter(|s| s.epoch >= oldest && s.epoch <= epoch)
            .fold(0u64, |acc, s| acc.saturating_add(s.value))
    }
}

/// Live per-model tallies for the scheduler roster panel.
#[derive(Debug, Clone, Default)]
pub struct ModelStat {
    /// Steps this model has driven since the hub started.
    pub steps: u64,
    /// Times this model was quarantined.
    pub quarantines: u64,
    /// Uptime milliseconds of the last step it drove.
    pub last_seen_ms: u64,
}

/// Live per-kernel tallies from `prof.kernel` events.
#[derive(Debug, Clone, Default)]
pub struct KernelStat {
    /// Calls accumulated across reported scopes.
    pub calls: u64,
    /// Elapsed nanoseconds accumulated.
    pub ns: u64,
    /// FLOPs accumulated.
    pub flops: f64,
}

impl KernelStat {
    /// Mean throughput in GFLOP/s over everything reported so far.
    pub fn gflops(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            self.flops / self.ns as f64
        }
    }
}

/// `/healthz` verdict.
#[derive(Debug, Clone, Default)]
pub struct Health {
    /// True while any SLO objective is burning.
    pub degraded: bool,
    /// One line per burning objective.
    pub reasons: Vec<String>,
}

#[derive(Default)]
pub(crate) struct Inner {
    series: BTreeMap<String, SeriesRing>,
    counter_rings: BTreeMap<String, CounterRing>,
    counters_total: BTreeMap<String, u64>,
    prev_hist: BTreeMap<String, HistogramSnapshot>,
    prev_counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    roster: BTreeMap<String, ModelStat>,
    kernels: BTreeMap<String, KernelStat>,
    faults: BTreeMap<String, u64>,
    pub(crate) slo: Vec<SloState>,
    reasons: Vec<String>,
    ticks: u64,
}

/// The registry every endpoint reads from. One global instance serves
/// a live process ([`crate::global`]); tests build private hubs with
/// explicit clocks.
pub struct Hub {
    cfg: Config,
    start: Instant,
    degraded: AtomicBool,
    inner: Mutex<Inner>,
}

fn lock(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Hub {
    /// An empty hub with the given windowing/SLO configuration.
    pub fn new(cfg: Config) -> Self {
        let slo = slo::initial_state(&cfg.slo);
        Self {
            cfg,
            start: Instant::now(),
            degraded: AtomicBool::new(false),
            inner: Mutex::new(Inner { slo, ..Inner::default() }),
        }
    }

    /// The hub's configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Milliseconds since the hub was created (the clock every
    /// `*_at` method takes explicitly, so tests can drive time).
    pub fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Seconds since the hub was created.
    pub fn uptime_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn epoch_of(&self, now_ms: u64) -> u64 {
        now_ms / self.cfg.slot_millis.max(1)
    }

    fn window_slots(&self, window: Window) -> usize {
        match window {
            Window::Fast => self.cfg.fast_slots.min(self.cfg.slots),
            Window::Slow => self.cfg.slots,
        }
    }

    // ------------------------------------------------------ ingestion

    /// Files a histogram delta (the samples of one collector tick)
    /// into series `name` at time `now_ms`.
    pub fn ingest_at(&self, name: &str, delta: &HistogramSnapshot, now_ms: u64) {
        if delta.count == 0 {
            return;
        }
        let epoch = self.epoch_of(now_ms);
        let slots = self.cfg.slots;
        let mut inner = lock(&self.inner);
        inner
            .series
            .entry(name.to_string())
            .or_insert_with(|| SeriesRing::new(slots))
            .ingest(delta, epoch);
    }

    /// Files a counter increment into the windowed rate ring of `name`.
    pub fn ingest_counter_at(&self, name: &str, delta: u64, now_ms: u64) {
        if delta == 0 {
            return;
        }
        let epoch = self.epoch_of(now_ms);
        let slots = self.cfg.slots;
        let mut inner = lock(&self.inner);
        inner
            .counter_rings
            .entry(name.to_string())
            .or_insert_with(|| CounterRing::new(slots))
            .ingest(delta, epoch);
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&self, name: &str, v: f64) {
        lock(&self.inner).gauges.insert(name.to_string(), v);
    }

    /// Credits one step to `model` in the roster.
    pub fn note_model_step(&self, model: &str, now_ms: u64) {
        let mut inner = lock(&self.inner);
        let stat = inner.roster.entry(model.to_string()).or_default();
        stat.steps = stat.steps.saturating_add(1);
        stat.last_seen_ms = now_ms;
    }

    /// Records a quarantine of `model`.
    pub fn note_model_quarantined(&self, model: &str) {
        let mut inner = lock(&self.inner);
        let stat = inner.roster.entry(model.to_string()).or_default();
        stat.quarantines = stat.quarantines.saturating_add(1);
    }

    /// Accumulates one `prof.kernel` report.
    pub fn note_kernel(&self, kernel: &str, calls: u64, ns: u64, flops: f64) {
        let mut inner = lock(&self.inner);
        let stat = inner.kernels.entry(kernel.to_string()).or_default();
        stat.calls = stat.calls.saturating_add(calls);
        stat.ns = stat.ns.saturating_add(ns);
        stat.flops += flops;
    }

    /// Tallies one injected fault of `kind`.
    pub fn note_fault(&self, kind: &str) {
        let mut inner = lock(&self.inner);
        let n = inner.faults.entry(kind.to_string()).or_insert(0);
        *n = n.saturating_add(1);
    }

    // -------------------------------------------------------- reading

    /// Windowed summary of series `name` (empty snapshot if the series
    /// has no live slots in the window).
    pub fn window_at(&self, name: &str, window: Window, now_ms: u64) -> HistogramSnapshot {
        let epoch = self.epoch_of(now_ms);
        let slots = self.window_slots(window);
        let inner = lock(&self.inner);
        inner
            .series
            .get(name)
            .map(|r| r.window(epoch, slots))
            .unwrap_or_else(HistogramSnapshot::empty)
    }

    /// Windowed sum of counter `name`.
    pub fn counter_window_at(&self, name: &str, window: Window, now_ms: u64) -> u64 {
        let epoch = self.epoch_of(now_ms);
        let slots = self.window_slots(window);
        let inner = lock(&self.inner);
        inner.counter_rings.get(name).map(|r| r.window(epoch, slots)).unwrap_or(0)
    }

    /// Names of every series with at least one live slot ever filed.
    pub fn series_names(&self) -> Vec<String> {
        lock(&self.inner).series.keys().cloned().collect()
    }

    /// Latest cumulative counter totals (collected from sfn-obs).
    pub fn counter_totals(&self) -> Vec<(String, u64)> {
        lock(&self.inner).counters_total.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        lock(&self.inner).gauges.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// The scheduler model roster, sorted by name.
    pub fn roster(&self) -> Vec<(String, ModelStat)> {
        lock(&self.inner).roster.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Per-kernel tallies, sorted by name.
    pub fn kernels(&self) -> Vec<(String, KernelStat)> {
        lock(&self.inner).kernels.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Per-fault-kind injection tallies.
    pub fn faults(&self) -> Vec<(String, u64)> {
        lock(&self.inner).faults.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Current SLO states (burn rates of the last evaluation).
    pub fn slo_states(&self) -> Vec<SloState> {
        lock(&self.inner).slo.clone()
    }

    /// Collector ticks performed so far.
    pub fn ticks(&self) -> u64 {
        lock(&self.inner).ticks
    }

    /// The `/healthz` verdict: degraded while any objective burns.
    pub fn health(&self) -> Health {
        Health {
            degraded: self.degraded.load(Ordering::Relaxed),
            reasons: lock(&self.inner).reasons.clone(),
        }
    }

    // ------------------------------------------------------ collector

    /// One collector tick at an explicit clock: diffs the cumulative
    /// sfn-obs counters/histograms against the previous tick, files
    /// the deltas into the window rings, and re-evaluates the SLOs.
    /// Emits `slo.burn` events outside the hub lock.
    pub fn collect_at(&self, now_ms: u64) {
        let hists = sfn_obs::histograms_snapshot();
        let counters = sfn_obs::counters_snapshot();
        let epoch = self.epoch_of(now_ms);
        let mut transitions;
        {
            let mut inner = lock(&self.inner);
            let slots = self.cfg.slots;
            for (name, cur) in &hists {
                let delta = match inner.prev_hist.get(name) {
                    Some(prev) => delta_snapshot(cur, prev),
                    None => *cur,
                };
                inner.prev_hist.insert(name.clone(), *cur);
                if delta.count > 0 {
                    inner
                        .series
                        .entry(name.clone())
                        .or_insert_with(|| SeriesRing::new(slots))
                        .ingest(&delta, epoch);
                }
            }
            for (name, cur) in &counters {
                let prev = inner.prev_counters.insert(name.clone(), *cur).unwrap_or(0);
                let delta = cur.saturating_sub(prev);
                inner.counters_total.insert(name.clone(), *cur);
                if delta > 0 {
                    inner
                        .counter_rings
                        .entry(name.clone())
                        .or_insert_with(|| CounterRing::new(slots))
                        .ingest(delta, epoch);
                }
            }
            inner.ticks += 1;

            // SLO pass over the freshly merged windows. Evaluation
            // needs the rings, so it runs under the same lock; the
            // resulting events are emitted after release.
            let window_slots = (self.window_slots(Window::Fast), self.window_slots(Window::Slow));
            transitions = slo::evaluate(&self.cfg.slo, &mut inner, epoch, window_slots);
            inner.reasons = transitions.reasons.clone();
        }
        self.degraded.store(!transitions.reasons.is_empty(), Ordering::Relaxed);
        for event in transitions.events.drain(..) {
            event.emit();
        }
    }

    /// [`Hub::collect_at`] on the real clock (what the collector
    /// thread calls).
    pub fn collect_now(&self) {
        self.collect_at(self.now_ms());
    }

    pub(crate) fn window_of_inner(
        inner: &mut Inner,
        name: &str,
        epoch: u64,
        window_slots: usize,
    ) -> HistogramSnapshot {
        inner
            .series
            .get(name)
            .map(|r| r.window(epoch, window_slots))
            .unwrap_or_else(HistogramSnapshot::empty)
    }

    pub(crate) fn counter_window_of_inner(
        inner: &mut Inner,
        name: &str,
        epoch: u64,
        window_slots: usize,
    ) -> u64 {
        inner.counter_rings.get(name).map(|r| r.window(epoch, window_slots)).unwrap_or(0)
    }
}

pub(crate) use Inner as HubInner;

/// The change in a cumulative histogram between two snapshots. Bucket
/// tallies and counts subtract (saturating — a reset mid-flight yields
/// the current snapshot, not garbage); min/max of the interval are
/// unknowable from cumulative aggregates, so they are approximated by
/// the delta's outermost occupied bucket edges.
pub fn delta_snapshot(cur: &HistogramSnapshot, prev: &HistogramSnapshot) -> HistogramSnapshot {
    if cur.count < prev.count {
        // The underlying histogram was reset; the whole current
        // snapshot is the delta.
        return *cur;
    }
    let mut buckets = [0u64; BUCKETS];
    for (i, dst) in buckets.iter_mut().enumerate() {
        *dst = cur.buckets[i].saturating_sub(prev.buckets[i]);
    }
    let count = cur.count - prev.count;
    let sum = if prev.sum.is_nan() { cur.sum } else { cur.sum - prev.sum };
    let lowest = buckets.iter().position(|&c| c > 0);
    let highest = buckets.iter().rposition(|&c| c > 0);
    let min = lowest.map(bucket_floor).unwrap_or(f64::NAN);
    let max = highest
        .map(|i| if i + 1 < BUCKETS { bucket_floor(i + 1) } else { bucket_floor(i) })
        .unwrap_or(f64::NAN);
    HistogramSnapshot::from_parts(count, sum, min, max, &buckets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_obs::Histogram;

    fn snap_of(samples: &[f64]) -> HistogramSnapshot {
        let h = Histogram::new();
        for &v in samples {
            h.record(v);
        }
        h.snapshot()
    }

    fn test_cfg() -> Config {
        Config {
            slot_millis: 100,
            slots: 10,
            fast_slots: 3,
            ..Config::default()
        }
    }

    #[test]
    fn windows_merge_only_live_slots() {
        let hub = Hub::new(test_cfg());
        hub.ingest_at("s", &snap_of(&[1.0]), 0);
        hub.ingest_at("s", &snap_of(&[1.0]), 150); // slot 1
        hub.ingest_at("s", &snap_of(&[1000.0]), 250); // slot 2
        // At t=250 the fast window (3 slots) covers slots 0..=2.
        assert_eq!(hub.window_at("s", Window::Fast, 250).count, 3);
        // At t=450 the fast window covers slots 2..=4: only the
        // 1000.0 sample survives.
        let w = hub.window_at("s", Window::Fast, 450);
        assert_eq!(w.count, 1);
        assert!(w.p50 >= 512.0, "p50 {}", w.p50);
        // The slow window (10 slots) still sees everything.
        assert_eq!(hub.window_at("s", Window::Slow, 450).count, 3);
    }

    #[test]
    fn old_samples_age_out_of_every_window() {
        let hub = Hub::new(test_cfg());
        hub.ingest_at("s", &snap_of(&[4.0, 5.0]), 0);
        hub.ingest_counter_at("c", 7, 0);
        assert_eq!(hub.window_at("s", Window::Slow, 0).count, 2);
        assert_eq!(hub.counter_window_at("c", Window::Slow, 0), 7);
        // Beyond the slow window (10 slots × 100 ms), nothing remains.
        let later = 10 * 100 + 250;
        assert_eq!(hub.window_at("s", Window::Fast, later).count, 0);
        assert_eq!(hub.window_at("s", Window::Slow, later).count, 0);
        assert!(hub.window_at("s", Window::Slow, later).p99.is_nan());
        assert_eq!(hub.counter_window_at("c", Window::Slow, later), 0);
    }

    #[test]
    fn ring_wraparound_does_not_resurrect_stale_slots() {
        let hub = Hub::new(test_cfg());
        hub.ingest_at("s", &snap_of(&[1.0]), 0);
        // Two laps later the same ring index is reused; the old slot's
        // epoch mismatch must discard, not merge.
        hub.ingest_at("s", &snap_of(&[2.0, 3.0]), 2 * 10 * 100);
        assert_eq!(hub.window_at("s", Window::Slow, 2 * 10 * 100).count, 2);
    }

    #[test]
    fn delta_subtracts_and_handles_resets() {
        let prev = snap_of(&[1.0, 2.0]);
        let cur = snap_of(&[1.0, 2.0, 700.0, 800.0]);
        let d = delta_snapshot(&cur, &prev);
        assert_eq!(d.count, 2);
        assert!((d.sum - 1500.0).abs() < 1e-9, "sum {}", d.sum);
        assert_eq!(d.buckets[sfn_obs::bucket_index(700.0)], 2);
        assert!(d.min <= 700.0 && d.max >= 800.0, "min {} max {}", d.min, d.max);
        // Reset: current count below previous → current is the delta.
        let after_reset = snap_of(&[5.0]);
        assert_eq!(delta_snapshot(&after_reset, &prev), after_reset);
    }

    #[test]
    fn roster_kernels_and_faults_accumulate() {
        let hub = Hub::new(test_cfg());
        hub.note_model_step("mlp-a", 10);
        hub.note_model_step("mlp-a", 20);
        hub.note_model_quarantined("mlp-a");
        hub.note_kernel("conv2d", 4, 2_000, 8_000.0);
        hub.note_kernel("conv2d", 1, 1_000, 1_000.0);
        hub.note_fault("nan_output");
        let roster = hub.roster();
        assert_eq!(roster[0].0, "mlp-a");
        assert_eq!((roster[0].1.steps, roster[0].1.quarantines, roster[0].1.last_seen_ms), (2, 1, 20));
        let kernels = hub.kernels();
        assert_eq!(kernels[0].1.calls, 5);
        assert!((kernels[0].1.gflops() - 3.0).abs() < 1e-12);
        assert_eq!(hub.faults(), vec![("nan_output".into(), 1)]);
    }
}
