//! Lock-free counters and histograms with a global named registry.
//!
//! The hot-path contract: when metrics are disabled,
//! [`counter_add`] / [`histogram_record`] cost one relaxed atomic load.
//! When enabled, the registry lookup takes a short mutex critical
//! section (callers on truly hot loops can intern a handle once with
//! [`counter`] / [`histogram`] and update it lock-free thereafter).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Number of log2 buckets in a [`Histogram`] (and in the bucket array
/// carried by every [`HistogramSnapshot`]).
pub const BUCKETS: usize = 64;

/// A lock-free histogram over f64 samples with power-of-two buckets
/// (bucket 0 collects values ≤ 0; bucket `i ≥ 1` collects
/// `[2^(i−33), 2^(i−32))`, covering ~1e-10 … ~2e9).
pub struct Histogram {
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// Bucket index of sample `v` (bucket 0 for `v ≤ 0`, else the clamped
/// power-of-two bucket). Public so downstream aggregators (sfn-metrics
/// window rings) bucket with identical math.
pub fn bucket_index(v: f64) -> usize {
    if v <= 0.0 {
        return 0;
    }
    let e = v.log2().floor() as i64;
    (e + 33).clamp(1, BUCKETS as i64 - 1) as usize
}

/// Lower bound of bucket `i ≥ 1` (used for quantile estimates).
pub fn bucket_floor(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        (i as f64 - 33.0).exp2()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// Records one sample. Non-finite samples count towards `count`
    /// only (they carry no magnitude information).
    pub fn record(&self, v: f64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        if !v.is_finite() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
        let _ = self
            .min_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v < f64::from_bits(bits)).then(|| v.to_bits())
            });
        let _ = self
            .max_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v > f64::from_bits(bits)).then(|| v.to_bits())
            });
    }

    /// A point-in-time summary.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum = f64::from_bits(self.sum_bits.load(Ordering::Relaxed));
        let min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        snapshot_from(count, sum, min, max, &counts)
    }

    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0, Ordering::Relaxed);
        self.min_bits.store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The nearest-rank rule: the 1-based rank of quantile `q` among `n`
/// samples is `ceil(q·n)`, clamped to `[1, n]`. f64-to-u64 casts
/// saturate, so a huge `n` cannot wrap the rank.
fn nearest_rank(q: f64, n: u64) -> u64 {
    ((q * n as f64).ceil().max(1.0) as u64).min(n)
}

/// Exact quantile `q` of ascending-sorted samples under the same
/// nearest-rank rule the bucketed estimate uses: the smallest sample
/// whose rank reaches `ceil(q·n)`.
///
/// # Panics
///
/// If `sorted` is empty.
pub fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[nearest_rank(q, sorted.len() as u64) as usize - 1]
}

/// Builds the summary from raw aggregates. All count arithmetic
/// saturates: bucket tallies near `u64::MAX` (a counter left running
/// for months, or a wrapped test fixture) must degrade percentile
/// resolution, never overflow.
fn snapshot_from(count: u64, sum: f64, min: f64, max: f64, counts: &[u64]) -> HistogramSnapshot {
    let finite = counts.iter().fold(0u64, |acc, &c| acc.saturating_add(c));
    let quantile = |q: f64| -> f64 {
        if finite == 0 {
            return f64::NAN;
        }
        let target = nearest_rank(q, finite);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= target {
                return bucket_floor(i);
            }
        }
        max
    };
    let mut buckets = [0u64; BUCKETS];
    for (dst, &src) in buckets.iter_mut().zip(counts) {
        *dst = src;
    }
    HistogramSnapshot {
        count,
        sum,
        min: if finite == 0 { f64::NAN } else { min },
        max: if finite == 0 { f64::NAN } else { max },
        p50: quantile(0.50),
        p90: quantile(0.90),
        p95: quantile(0.95),
        p99: quantile(0.99),
        buckets,
    }
}

/// Summary of a [`Histogram`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Samples recorded (including non-finite ones).
    pub count: u64,
    /// Sum of finite samples.
    pub sum: f64,
    /// Smallest finite sample (NaN when empty).
    pub min: f64,
    /// Largest finite sample (NaN when empty).
    pub max: f64,
    /// Median estimate at bucket resolution (a power-of-two lower
    /// bound, so within 2× of the true median).
    pub p50: f64,
    /// 90th-percentile estimate at bucket resolution.
    pub p90: f64,
    /// 95th-percentile estimate at bucket resolution.
    pub p95: f64,
    /// 99th-percentile estimate at bucket resolution.
    pub p99: f64,
    /// Raw per-bucket tallies of the finite samples ([`bucket_index`]
    /// layout) — what [`HistogramSnapshot::merge`] and downstream
    /// window rings operate on.
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// A snapshot of an empty histogram (NaN min/max/percentiles).
    pub fn empty() -> Self {
        snapshot_from(0, 0.0, f64::NAN, f64::NAN, &[])
    }

    /// Builds a snapshot from raw aggregates, recomputing the
    /// percentile estimates from `buckets`. The constructor downstream
    /// delta/window code uses after bucket arithmetic.
    pub fn from_parts(count: u64, sum: f64, min: f64, max: f64, buckets: &[u64; BUCKETS]) -> Self {
        snapshot_from(count, sum, min, max, buckets)
    }

    /// Mean of the finite samples (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merges two snapshots into the summary of their combined samples:
    /// counts and bucket tallies add (saturating — two near-overflow
    /// halves must degrade resolution, never wrap), sums add, min/max
    /// combine NaN-safely, and the percentile estimates are recomputed
    /// from the merged buckets. The building block of sliding-window
    /// rings: a window is the merge of its per-slot snapshots.
    pub fn merge(&self, other: &Self) -> Self {
        let mut buckets = self.buckets;
        for (dst, &src) in buckets.iter_mut().zip(&other.buckets) {
            *dst = dst.saturating_add(src);
        }
        // NaN-safe: an empty side contributes nothing to min/max.
        let min = match (self.min.is_nan(), other.min.is_nan()) {
            (true, _) => other.min,
            (_, true) => self.min,
            _ => self.min.min(other.min),
        };
        let max = match (self.max.is_nan(), other.max.is_nan()) {
            (true, _) => other.max,
            (_, true) => self.max,
            _ => self.max.max(other.max),
        };
        snapshot_from(
            self.count.saturating_add(other.count),
            self.sum + other.sum,
            min,
            max,
            &buckets,
        )
    }
}

fn counters() -> &'static Mutex<BTreeMap<String, &'static Counter>> {
    static MAP: OnceLock<Mutex<BTreeMap<String, &'static Counter>>> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn histograms() -> &'static Mutex<BTreeMap<String, &'static Histogram>> {
    static MAP: OnceLock<Mutex<BTreeMap<String, &'static Histogram>>> = OnceLock::new();
    MAP.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Interns and returns the counter `name`. The returned handle updates
/// lock-free, so hot loops should call this once and reuse it.
pub fn counter(name: &str) -> &'static Counter {
    let mut map = lock(counters());
    if let Some(c) = map.get(name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter::new()));
    map.insert(name.to_string(), c);
    c
}

/// Adds `v` to counter `name` when metrics are enabled (single atomic
/// load otherwise).
#[inline]
pub fn counter_add(name: &str, v: u64) {
    if crate::metrics_enabled() {
        counter(name).add(v);
    }
}

/// Current value of counter `name` (0 if it was never touched).
pub fn counter_value(name: &str) -> u64 {
    lock(counters()).get(name).map(|c| c.get()).unwrap_or(0)
}

/// Interns and returns the histogram `name`.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut map = lock(histograms());
    if let Some(h) = map.get(name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    map.insert(name.to_string(), h);
    h
}

/// Records `v` into histogram `name` when metrics are enabled.
#[inline]
pub fn histogram_record(name: &str, v: f64) {
    if crate::metrics_enabled() {
        histogram(name).record(v);
    }
}

/// Snapshot of histogram `name`, if it exists.
pub fn histogram_snapshot(name: &str) -> Option<HistogramSnapshot> {
    lock(histograms()).get(name).map(|h| h.snapshot())
}

/// All counters, sorted by name.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    lock(counters())
        .iter()
        .map(|(k, c)| (k.clone(), c.get()))
        .collect()
}

/// All histograms, sorted by name.
pub fn histograms_snapshot() -> Vec<(String, HistogramSnapshot)> {
    lock(histograms())
        .iter()
        .map(|(k, h)| (k.clone(), h.snapshot()))
        .collect()
}

pub(crate) fn reset_metrics() {
    for c in lock(counters()).values() {
        c.reset();
    }
    for h in lock(histograms()).values() {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn counter_updates_are_atomic_across_threads() {
        let _guard = test_lock::hold();
        crate::enable_metrics(true);
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        counter_add("test.metrics.concurrent_counter", 1);
                    }
                });
            }
        });
        assert_eq!(
            counter_value("test.metrics.concurrent_counter"),
            threads * per_thread
        );
        crate::enable_metrics(false);
    }

    #[test]
    fn histogram_concurrent_updates_preserve_totals() {
        let _guard = test_lock::hold();
        crate::enable_metrics(true);
        let threads = 4;
        let n = 1000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for i in 1..=n {
                        histogram_record("test.metrics.concurrent_hist", i as f64);
                    }
                });
            }
        });
        let snap = histogram_snapshot("test.metrics.concurrent_hist").unwrap();
        assert_eq!(snap.count, (threads * n) as u64);
        assert_eq!(snap.min, 1.0);
        assert_eq!(snap.max, n as f64);
        let expect_sum = threads as f64 * (n * (n + 1) / 2) as f64;
        assert!((snap.sum - expect_sum).abs() < 1e-6, "sum {}", snap.sum);
        assert!((snap.mean() - expect_sum / (threads * n) as f64).abs() < 1e-9);
        // Median of 1..=1000 is ~500; the bucket estimate is its
        // power-of-two floor.
        assert!(snap.p50 >= 128.0 && snap.p50 <= 512.0, "p50 {}", snap.p50);
        crate::enable_metrics(false);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let _guard = test_lock::hold();
        crate::enable_metrics(false);
        counter_add("test.metrics.disabled_counter", 5);
        histogram_record("test.metrics.disabled_hist", 1.0);
        assert_eq!(counter_value("test.metrics.disabled_counter"), 0);
        assert!(histogram_snapshot("test.metrics.disabled_hist").is_none());
    }

    #[test]
    fn histogram_handles_nonfinite_and_nonpositive() {
        let h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-3.0);
        h.record(0.0);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, -3.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.sum, -3.0);
    }

    #[test]
    fn empty_histogram_snapshot_is_all_nan() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0.0);
        for v in [s.min, s.max, s.p50, s.p90, s.p95, s.p99, s.mean()] {
            assert!(v.is_nan(), "expected NaN, got {v}");
        }
    }

    #[test]
    fn single_sample_pins_every_percentile() {
        let h = Histogram::new();
        h.record(6.64);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!((s.min, s.max), (6.64, 6.64));
        // One sample: every quantile resolves to its bucket's floor.
        let floor = bucket_floor(bucket_index(6.64));
        for q in [s.p50, s.p90, s.p95, s.p99] {
            assert_eq!(q, floor);
        }
        assert!(floor <= 6.64 && 6.64 < floor * 2.0);
    }

    #[test]
    fn exact_log2_boundaries_land_in_their_own_bucket() {
        // 2^k is the *inclusive lower bound* of its bucket: recording
        // exact powers of two must report those same powers back as
        // percentile floors, not the bucket below.
        for v in [0.25, 0.5, 1.0, 2.0, 4.0, 1024.0] {
            assert_eq!(bucket_floor(bucket_index(v)), v, "boundary {v}");
            let h = Histogram::new();
            h.record(v);
            let s = h.snapshot();
            assert_eq!(s.p50, v, "p50 of a single boundary sample {v}");
        }
        // Just below a boundary falls in the previous bucket.
        assert_eq!(bucket_index(2.0f64.next_down()), bucket_index(1.5));
        assert_eq!(bucket_index(2.0), bucket_index(3.0));
    }

    #[test]
    fn quantiles_split_across_boundary_buckets() {
        let h = Histogram::new();
        for _ in 0..50 {
            h.record(1.0); // [1, 2) bucket
        }
        for _ in 0..50 {
            h.record(2.0); // [2, 4) bucket
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, 1.0, "the 50th sample is still in the first bucket");
        assert_eq!(s.p90, 2.0);
        assert_eq!(s.p99, 2.0);
    }

    #[test]
    fn saturating_counts_do_not_overflow_percentiles() {
        // Synthetic aggregates with bucket tallies at u64::MAX: the
        // cumulative walk must saturate instead of wrapping (a wrap
        // would panic in debug builds and mis-rank quantiles in
        // release).
        let mut counts = vec![0u64; BUCKETS];
        counts[10] = u64::MAX;
        counts[20] = u64::MAX;
        counts[30] = 1;
        let s = snapshot_from(u64::MAX, f64::INFINITY, 1e-6, 1e3, &counts);
        assert_eq!(s.p50, bucket_floor(10), "half the mass sits in the first spike");
        // The saturated first spike alone reaches any clamped target:
        // resolution degrades to the first bucket, but never wraps.
        assert_eq!(s.p99, bucket_floor(10));
        assert_eq!(s.min, 1e-6);
        assert_eq!(s.max, 1e3);
        // All-saturated tail: the quantile target itself clamps to
        // `finite` and resolves to the last non-empty bucket.
        let mut tail = vec![0u64; BUCKETS];
        tail[BUCKETS - 1] = u64::MAX;
        let s = snapshot_from(u64::MAX, 0.0, 0.0, 0.0, &tail);
        assert_eq!(s.p99, bucket_floor(BUCKETS - 1));
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let h = Histogram::new();
        for v in [0.5, 1.0, 3.0, 700.0] {
            h.record(v);
        }
        let s = h.snapshot();
        let e = HistogramSnapshot::empty();
        assert_eq!(e.merge(&e).count, 0);
        assert!(e.merge(&e).p50.is_nan());
        for merged in [s.merge(&e), e.merge(&s)] {
            assert_eq!(merged, s, "merging with empty must be an identity");
        }
    }

    #[test]
    fn merge_disjoint_buckets_combines_ranges() {
        // Left histogram entirely in [1, 2), right entirely in
        // [1024, 2048): no bucket overlaps.
        let (a, b) = (Histogram::new(), Histogram::new());
        for _ in 0..90 {
            a.record(1.5);
        }
        for _ in 0..10 {
            b.record(1500.0);
        }
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count, 100);
        assert_eq!((m.min, m.max), (1.5, 1500.0));
        assert_eq!(m.buckets[bucket_index(1.5)], 90);
        assert_eq!(m.buckets[bucket_index(1500.0)], 10);
        // 90% of the mass sits in the low bucket: the median stays
        // there and the p99 jumps to the high one.
        assert_eq!(m.p50, bucket_floor(bucket_index(1.5)));
        assert_eq!(m.p99, bucket_floor(bucket_index(1500.0)));
    }

    #[test]
    fn merge_overlapping_buckets_adds_tallies() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for _ in 0..50 {
            a.record(1.0);
            b.record(1.0);
        }
        for _ in 0..25 {
            b.record(2.5);
        }
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.count, 125);
        assert_eq!(m.buckets[bucket_index(1.0)], 100);
        assert_eq!(m.buckets[bucket_index(2.5)], 25);
        assert_eq!(m.sum, 50.0 + 50.0 + 62.5);
        // 100 of 125 samples in [1, 2): p50 there, p90 in [2, 4).
        assert_eq!(m.p50, 1.0);
        assert_eq!(m.p90, 2.0);
        // Merge is symmetric.
        assert_eq!(b.snapshot().merge(&a.snapshot()), m);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut counts = [0u64; BUCKETS];
        counts[10] = u64::MAX - 1;
        let a = HistogramSnapshot::from_parts(u64::MAX - 1, 1.0, 1e-6, 1e-6, &counts);
        let m = a.merge(&a);
        assert_eq!(m.count, u64::MAX);
        assert_eq!(m.buckets[10], u64::MAX);
        assert_eq!(m.p99, bucket_floor(10));
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut last = 0;
        for v in [1e-12, 1e-6, 0.1, 1.0, 2.0, 100.0, 1e6, 1e12] {
            let i = bucket_index(v);
            assert!(i >= last, "index not monotone at {v}");
            last = i;
        }
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(1.5), bucket_index(1.9));
        assert!(bucket_floor(bucket_index(6.64)) <= 6.64);
    }
}
