//! Small shared pieces: seed derivation, order statistics, process
//! accounting from `/proc`, and a bit-exact field checksum.

use std::time::Instant;

/// SplitMix64. The benchmark derives every input from `--seed` through
/// this generator (not the product's `sfn-rng`), so the inputs stay the
/// same when the product's generator changes.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// `n ≤ 100` this is used with.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// An independent stream for one purpose (`"problems"`, `"requests"`…)
/// of one run.
pub fn derive_seed(seed: u64, purpose: &str) -> u64 {
    let mut h = SplitMix64::new(seed ^ 0x5F0E_BE4C_11AD_0001);
    for b in purpose.bytes() {
        h.0 ^= u64::from(b);
        h.next_u64();
    }
    h.next_u64()
}

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 100]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile a sample of `n` supports: the highest of
/// p95/p90/p75 with at least ten samples beyond it, else the median.
/// Capped at p95 because p99 of ~1000 ops has ten samples beyond it and
/// read 24 to 33 ms across identical runs when the benchmark was scoped.
pub fn tail_percentile(n: usize) -> f64 {
    [95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| {
            let rank = (p / 100.0 * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= 10
        })
        .unwrap_or(50.0)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the driver's spread rule.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Process user+system CPU seconds from `/proc/self/stat` (fields 14
/// and 15, in clock ticks; Linux fixes `USER_HZ` at 100).
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; count from its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / 100.0
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over the exact bit patterns, for the traced-vs-untraced
/// determinism check.
pub fn checksum(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1200), 95.0);
        assert_eq!(tail_percentile(200), 95.0); // rank 190, ten beyond
        assert_eq!(tail_percentile(199), 90.0); // rank 190 of 199: nine beyond
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }

    #[test]
    fn seeds_derive_deterministically_and_apart() {
        assert_eq!(derive_seed(7, "problems"), derive_seed(7, "problems"));
        assert_ne!(derive_seed(7, "problems"), derive_seed(7, "requests"));
        assert_ne!(derive_seed(7, "problems"), derive_seed(8, "problems"));
    }

    #[test]
    fn checksum_sees_the_sign_of_zero() {
        assert_ne!(checksum(&[0.0]), checksum(&[-0.0]));
        assert_eq!(checksum(&[1.5, 2.5]), checksum(&[1.5, 2.5]));
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.5);
        assert!(process_cpu_seconds() >= 0.0);
    }
}
