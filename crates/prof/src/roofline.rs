//! Roofline calibration and classification.
//!
//! The roofline model places a kernel by its *arithmetic intensity*
//! (FLOPs per byte of memory traffic) against the *machine balance*
//! (peak FLOP/s ÷ stream bandwidth): below the balance the kernel
//! cannot saturate the ALUs no matter how well it is scheduled
//! (memory-bound), above it the memory system is not the limit
//! (compute-bound). [`calibrate`] measures both machine numbers with
//! short micro-benchmarks; [`classify`] is the pure decision function
//! so the edge cases are testable without timing anything.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Which resource bounds a kernel on the calibrated roofline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Arithmetic intensity at or above the machine balance: the ALUs
    /// are the ceiling.
    Compute,
    /// Intensity below the balance: memory traffic is the ceiling.
    Memory,
}

impl Bound {
    /// The lowercase name used in reports (`"compute"` / `"memory"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Bound::Compute => "compute",
            Bound::Memory => "memory",
        }
    }
}

/// Arithmetic intensity in FLOPs per byte.
///
/// Conventions for the degenerate corners: zero FLOPs is intensity 0
/// (a pure data move), and nonzero FLOPs over zero bytes is infinite
/// intensity (a pure compute loop) — both well-ordered against any
/// finite machine balance.
pub fn intensity(flops: u64, bytes: u64) -> f64 {
    if flops == 0 {
        return 0.0;
    }
    if bytes == 0 {
        return f64::INFINITY;
    }
    flops as f64 / bytes as f64
}

/// Classifies a kernel against a machine balance (FLOPs per byte).
///
/// Zero-FLOP kernels are memory-bound by definition; zero-byte kernels
/// with any FLOPs are compute-bound. A non-finite or non-positive
/// balance (a degenerate calibration) classifies everything
/// memory-bound except pure-compute kernels, the conservative answer
/// for SIMD planning.
pub fn classify(flops: u64, bytes: u64, balance: f64) -> Bound {
    if flops == 0 {
        return Bound::Memory;
    }
    if bytes == 0 {
        return Bound::Compute;
    }
    let i = intensity(flops, bytes);
    if balance.is_finite() && balance > 0.0 && i >= balance {
        Bound::Compute
    } else {
        Bound::Memory
    }
}

/// Measured machine ceilings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Peak sustained scalar FLOP/s, in GFLOP/s.
    pub peak_gflops: f64,
    /// Sustained stream (copy) bandwidth, in GB/s.
    pub stream_gbps: f64,
}

impl Calibration {
    /// Machine balance in FLOPs per byte.
    pub fn balance(&self) -> f64 {
        if self.stream_gbps > 0.0 {
            self.peak_gflops / self.stream_gbps
        } else {
            f64::INFINITY
        }
    }

    /// Classifies a kernel's totals against this machine.
    pub fn classify(&self, flops: u64, bytes: u64) -> Bound {
        classify(flops, bytes, self.balance())
    }
}

/// Time spent in each calibration micro-benchmark.
const CALIB_BUDGET: Duration = Duration::from_millis(10);

/// Peak FLOP/s estimate: independent multiply–add chains, enough of
/// them to cover the FPU latency×throughput product.
fn measure_peak_flops(budget: Duration) -> f64 {
    let mut acc = [1.0f64, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7];
    let c = 1.000_000_001_f64;
    let d = 1e-9f64;
    let start = Instant::now();
    let mut ops: u64 = 0;
    loop {
        for _ in 0..4096 {
            for a in &mut acc {
                *a = *a * c + d;
            }
        }
        ops += 2 * acc.len() as u64 * 4096;
        if start.elapsed() >= budget {
            break;
        }
    }
    std::hint::black_box(acc);
    ops as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Stream bandwidth estimate: buffer-to-buffer copies over arrays well
/// past L2 (8 MiB each way), counting read + write traffic.
fn measure_stream_bandwidth(budget: Duration) -> f64 {
    let n = 1 << 20; // 1 Mi f64 = 8 MiB per buffer
    let src = vec![1.0f64; n];
    let mut dst = vec![0.0f64; n];
    let start = Instant::now();
    let mut bytes: u64 = 0;
    loop {
        dst.copy_from_slice(&src);
        std::hint::black_box(&dst);
        bytes += 16 * n as u64; // 8 read + 8 written per element
        if start.elapsed() >= budget {
            break;
        }
    }
    bytes as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Runs the calibration micro-benchmarks (10 ms each).
pub fn calibrate() -> Calibration {
    Calibration {
        peak_gflops: measure_peak_flops(CALIB_BUDGET) / 1e9,
        stream_gbps: measure_stream_bandwidth(CALIB_BUDGET) / 1e9,
    }
}

/// The process-wide calibration, measured once on first use.
pub fn calibration() -> Calibration {
    static CAL: OnceLock<Calibration> = OnceLock::new();
    *CAL.get_or_init(calibrate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_edge_cases() {
        assert_eq!(intensity(0, 0), 0.0, "no work at all");
        assert_eq!(intensity(0, 1024), 0.0, "pure data move");
        assert_eq!(intensity(1024, 0), f64::INFINITY, "pure compute");
        assert_eq!(intensity(100, 50), 2.0);
    }

    #[test]
    fn classification_edge_cases() {
        let balance = 8.0;
        assert_eq!(classify(0, 0, balance), Bound::Memory, "zero flops, zero bytes");
        assert_eq!(classify(0, 1 << 30, balance), Bound::Memory, "zero flops");
        assert_eq!(classify(1 << 30, 0, balance), Bound::Compute, "zero bytes");
        assert_eq!(classify(80, 10, balance), Bound::Compute, "at the balance point");
        assert_eq!(classify(79, 10, balance), Bound::Memory, "just below");
    }

    #[test]
    fn saturated_counters_classify_without_overflow() {
        // u64::MAX counters must convert to f64 and order sanely.
        assert!(intensity(u64::MAX, 1).is_finite());
        assert_eq!(classify(u64::MAX, 1, 8.0), Bound::Compute);
        assert_eq!(classify(1, u64::MAX, 8.0), Bound::Memory);
        assert_eq!(classify(u64::MAX, u64::MAX, 8.0), Bound::Memory);
    }

    #[test]
    fn degenerate_balance_is_conservative() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(classify(100, 10, bad), Bound::Memory, "balance {bad}");
            assert_eq!(classify(100, 0, bad), Bound::Compute, "pure compute, balance {bad}");
        }
    }

    #[test]
    fn calibration_measures_positive_ceilings() {
        let cal = calibrate();
        assert!(cal.peak_gflops > 0.0, "{cal:?}");
        assert!(cal.stream_gbps > 0.0, "{cal:?}");
        assert!(cal.balance() > 0.0);
    }
}
