//! Accuracy of the sliding-window quantile estimator.
//!
//! The estimator reports the lower edge of the log2 bucket holding the
//! target rank, so for a positive exact quantile `q` it must return
//! exactly `bucket_floor(bucket_index(q))`, which pins it inside
//! `(q/2, q]`. The tests drive seeded sfn-rng sample streams of
//! different shapes (uniform, lognormal, bimodal) through a hub with an
//! explicit clock and check both the exact-bucket identity and the
//! factor-of-two bound for the merged fast and slow windows, then that
//! samples expire once the window slides past them.

use sfn_metrics::hub::{Config, Hub, Window};
use sfn_metrics::slo::SloConfig;
use sfn_obs::{bucket_floor, bucket_index, exact_quantile, Histogram};
use sfn_rng::{RngExt, SeedableRng, StdRng};

fn test_hub() -> Hub {
    Hub::new(Config {
        slot_millis: 100,
        slots: 10,
        fast_slots: 3,
        slo: SloConfig::default(),
        ..Config::default()
    })
}

fn assert_windowed_quantiles_match(name: &str, samples: &[f64]) {
    let hub = test_hub();
    let h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    // All samples land in one tick; both windows then see the same set.
    hub.ingest_at(name, &h.snapshot(), 0);

    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);

    for window in [Window::Fast, Window::Slow] {
        let snap = hub.window_at(name, window, 0);
        assert_eq!(snap.count, samples.len() as u64, "{name}: windowed count");
        for (q, est) in [(0.50, snap.p50), (0.99, snap.p99)] {
            let exact = exact_quantile(&sorted, q);
            assert!(exact > 0.0, "{name}: degenerate stream");
            let expected = bucket_floor(bucket_index(exact));
            assert_eq!(
                est, expected,
                "{name} p{}: estimator {est} != bucket floor {expected} of exact {exact}",
                (q * 100.0) as u32
            );
            assert!(
                est <= exact && exact < 2.0 * est,
                "{name} p{}: {est} outside ({}, {}] log2-bucket bound around exact {exact}",
                (q * 100.0) as u32,
                exact / 2.0,
                exact
            );
        }
    }
}

#[test]
fn uniform_stream_quantiles_are_bucket_exact() {
    let mut rng = StdRng::seed_from_u64(11);
    let samples: Vec<f64> = (0..20_000).map(|_| rng.random_range(0.001..1.0)).collect();
    assert_windowed_quantiles_match("uniform.secs", &samples);
}

#[test]
fn lognormal_stream_quantiles_are_bucket_exact() {
    let mut rng = StdRng::seed_from_u64(12);
    // exp(N(-3, 1)): median ≈ 50 ms with a heavy right tail — the
    // shape of real step latencies.
    let samples: Vec<f64> = (0..20_000).map(|_| (rng.normal(1.0) - 3.0).exp()).collect();
    assert_windowed_quantiles_match("lognormal.secs", &samples);
}

#[test]
fn bimodal_stream_quantiles_are_bucket_exact() {
    let mut rng = StdRng::seed_from_u64(13);
    // 90% fast surrogate steps around 5 ms, 10% slow solver fallbacks
    // in the hundreds of milliseconds: p50 and p99 land in different
    // modes, which defeats mean-based summaries.
    let samples: Vec<f64> = (0..20_000)
        .map(|_| {
            if rng.random_unit() < 0.9 {
                rng.random_range(0.004..0.006)
            } else {
                rng.random_range(0.6..1.0)
            }
        })
        .collect();
    assert_windowed_quantiles_match("bimodal.secs", &samples);
    // Sanity: the two quantiles really straddle the modes.
    let hub = test_hub();
    let h = Histogram::new();
    for &v in &samples {
        h.record(v);
    }
    hub.ingest_at("bimodal.secs", &h.snapshot(), 0);
    let snap = hub.window_at("bimodal.secs", Window::Fast, 0);
    assert!(snap.p50 < 0.01, "p50 {} should sit in the fast mode", snap.p50);
    assert!(snap.p99 >= 0.5, "p99 {} should sit in the slow mode", snap.p99);
}

#[test]
fn sliding_windows_expire_old_samples_from_quantiles() {
    let hub = test_hub();
    let slow = Histogram::new();
    for _ in 0..100 {
        slow.record(1.0);
    }
    let fast = Histogram::new();
    for _ in 0..100 {
        fast.record(0.01);
    }
    // Slow samples at t=0s; fast samples at t=0.5s.
    hub.ingest_at("s", &slow.snapshot(), 0);
    hub.ingest_at("s", &fast.snapshot(), 500);

    // At t=0.5s the fast window (0.3 s) has slid past the slow batch:
    // its p99 reflects only the 10 ms samples. The slow window (1 s)
    // still covers both batches, so its p99 stays in the 1 s bucket.
    let fast_now = hub.window_at("s", Window::Fast, 500);
    assert_eq!(fast_now.count, 100);
    assert!(fast_now.p99 < 0.02, "fast p99 {} still polluted", fast_now.p99);
    let slow_now = hub.window_at("s", Window::Slow, 500);
    assert_eq!(slow_now.count, 200);
    assert!(slow_now.p99 >= 0.5, "slow p99 {} lost the old batch", slow_now.p99);

    // Once the slow window slides past t=0 too, its p99 drops as well.
    let slow_later = hub.window_at("s", Window::Slow, 1200);
    assert_eq!(slow_later.count, 100);
    assert!(slow_later.p99 < 0.02, "expired batch leaked into p99 {}", slow_later.p99);

    // And past everything, the window reads empty with NaN quantiles.
    let empty = hub.window_at("s", Window::Slow, 5_000);
    assert_eq!(empty.count, 0);
    assert!(empty.p50.is_nan() && empty.p99.is_nan());
}
