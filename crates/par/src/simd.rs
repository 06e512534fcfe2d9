//! Runtime SIMD dispatch shared by every vectorised kernel in the
//! workspace.
//!
//! The hot kernels (conv2d, the Poisson stencil, the PCG vector ops,
//! advection gathers) each keep an always-compiled scalar reference
//! path and add `std::arch` variants behind *runtime* feature
//! detection — the binary stays portable, and the scalar path doubles
//! as the differential oracle baseline for the `simd_diff` fuzz target.
//!
//! Resolution order:
//!
//! 1. `SFN_SIMD` environment override: `auto` (default), `avx2`, or
//!    `scalar`. Requesting an ISA the CPU (or target arch) does not
//!    have falls back to scalar — never to an illegal instruction.
//! 2. Otherwise runtime detection: AVX2+FMA on x86_64, scalar
//!    everywhere else.
//!
//! The decision is made once and cached in an atomic; [`force`] lets
//! tests pin a level (and restore `None` to re-read the environment).

use std::sync::atomic::{AtomicU8, Ordering};

/// Which vector instruction set the dispatched kernels use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar loops (the reference semantics).
    Scalar,
    /// x86_64 AVX2 + FMA (8×f32 / 4×f64 lanes).
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name (kernel-path suffixes, reports).
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

const UNRESOLVED: u8 = 0;

fn encode(l: SimdLevel) -> u8 {
    match l {
        SimdLevel::Scalar => 1,
        SimdLevel::Avx2 => 2,
    }
}

fn decode(v: u8) -> Option<SimdLevel> {
    match v {
        1 => Some(SimdLevel::Scalar),
        2 => Some(SimdLevel::Avx2),
        _ => None,
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(UNRESOLVED);

/// What the hardware supports, ignoring the environment.
pub fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

fn resolve() -> SimdLevel {
    let detected = detect();
    match std::env::var("SFN_SIMD").as_deref().map(str::trim) {
        Ok("scalar") => SimdLevel::Scalar,
        // An explicit ISA request is honoured only when the hardware
        // has it; otherwise fall back to whatever is actually safe.
        Ok("avx2") => {
            if detected == SimdLevel::Avx2 {
                SimdLevel::Avx2
            } else {
                detected
            }
        }
        // `auto`, unset, or anything unrecognised: trust detection.
        _ => detected,
    }
}

/// The SIMD level every dispatched kernel should use (cached after the
/// first call).
#[inline]
pub fn level() -> SimdLevel {
    if let Some(l) = decode(LEVEL.load(Ordering::Relaxed)) {
        return l;
    }
    let l = resolve();
    LEVEL.store(encode(l), Ordering::Relaxed);
    l
}

/// Pins the dispatch level (tests, the differential oracle). `None`
/// clears the cache so the next [`level`] call re-reads the
/// environment.
pub fn force(l: Option<SimdLevel>) {
    LEVEL.store(l.map(encode).unwrap_or(UNRESOLVED), Ordering::Relaxed);
}

/// Runs `f` with the dispatch level pinned to `l`, restoring the
/// previous cached value afterwards (panic-safe). Serialise callers
/// externally — the level is process-global.
pub fn with_level<R>(l: SimdLevel, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            LEVEL.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(LEVEL.swap(encode(l), Ordering::Relaxed));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(SimdLevel::Scalar.as_str(), "scalar");
        assert_eq!(SimdLevel::Avx2.as_str(), "avx2");
    }

    #[test]
    fn force_overrides_and_clears() {
        with_level(SimdLevel::Scalar, || {
            assert_eq!(level(), SimdLevel::Scalar);
        });
        // After the guard drops the cached value is whatever it was
        // before; clearing re-resolves without panicking.
        force(None);
        let l = level();
        assert_eq!(l, level(), "level is stable across calls");
    }

    #[test]
    fn detection_never_exceeds_target_arch() {
        let d = detect();
        #[cfg(not(target_arch = "x86_64"))]
        assert_ne!(d, SimdLevel::Avx2);
        let _ = d;
    }
}
