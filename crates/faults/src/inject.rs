//! The process-global injector and the per-layer injection hooks.
//!
//! Every hook is a no-op costing one relaxed atomic load while no plan
//! is installed, so production binaries can keep the probes compiled
//! in. With a plan active, each hook consults the schedule with a
//! *pure* decision hash — reproducible across runs and thread
//! interleavings — applies the fault, logs a `fault.injected` event
//! through `sfn-obs`, and bumps the `faults.injected` counter.

use crate::config::{FaultKind, FaultPlan};
use crate::rng;
use sfn_obs::Level;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock};
use std::time::Duration;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static INJECTED: AtomicU64 = AtomicU64::new(0);
static RECOVERED: AtomicU64 = AtomicU64::new(0);
static ENV_INIT: Once = Once::new();

fn plan_slot() -> &'static Mutex<Option<FaultPlan>> {
    static SLOT: OnceLock<Mutex<Option<FaultPlan>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn lock_plan() -> MutexGuard<'static, Option<FaultPlan>> {
    plan_slot().lock().unwrap_or_else(|e| e.into_inner())
}

/// Per-site invocation counters for hooks without a natural step index
/// (artifact reads). Deterministic as long as each site's own call
/// order is deterministic.
fn site_counters() -> &'static Mutex<HashMap<String, u64>> {
    static SLOT: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(HashMap::new()))
}

/// True if a fault plan is installed (the fast-path gate).
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Installs a plan (or, with `None`, disarms injection). Counters and
/// per-site invocation counters are reset so schedules are independent.
pub fn install(plan: Option<FaultPlan>) {
    let mut guard = lock_plan();
    ACTIVE.store(plan.is_some(), Ordering::Relaxed);
    *guard = plan;
    INJECTED.store(0, Ordering::Relaxed);
    RECOVERED.store(0, Ordering::Relaxed);
    site_counters().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// The installed plan, if any (for reporting).
pub fn current_plan() -> Option<FaultPlan> {
    lock_plan().clone()
}

/// Reads `SFN_FAULTS` once and installs the schedule it describes. A
/// malformed value is reported as a warning and ignored — fault
/// injection must never be the thing that crashes the process.
pub fn init_from_env() {
    ENV_INIT.call_once(|| {
        let Ok(raw) = std::env::var("SFN_FAULTS") else { return };
        if raw.trim().is_empty() {
            return;
        }
        match crate::config::parse_plan(&raw) {
            Ok(plan) => {
                let n = plan.specs.len();
                let seed = plan.seed;
                install(Some(plan));
                sfn_obs::event(Level::Info, "fault.armed")
                    .field_u64("seed", seed)
                    .field_u64("specs", n as u64)
                    .emit();
            }
            Err(e) => {
                sfn_obs::event(Level::Warn, "fault.config_invalid")
                    .field_str("error", &e.to_string())
                    .emit();
                // Also tally it as a hardened-boundary rejection so
                // `sfn-trace audit` counts it with the other parsers.
                sfn_obs::event(Level::Warn, "parser.rejected")
                    .field_str("boundary", "sfn_faults")
                    .field_str("error", &e.to_string())
                    .emit();
            }
        }
    });
}

/// Number of injections performed under the current plan.
pub fn injected_count() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// Number of recoveries reported by host layers under the current plan.
pub fn recovered_count() -> u64 {
    RECOVERED.load(Ordering::Relaxed)
}

/// Called by a host layer after it *survived* a fault (rollback
/// completed, cache rebuilt, candidate demoted …).
pub fn note_recovery(site: &str) {
    RECOVERED.fetch_add(1, Ordering::Relaxed);
    sfn_obs::counter_add("faults.recovered", 1);
    sfn_obs::event(Level::Info, "fault.recovered").field_str("site", site).emit();
}

/// The matched firing of one spec: its kind and magnitude.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Firing {
    kind: FaultKind,
    magnitude: f64,
    hash: u64,
}

/// Decides which specs of `kinds` fire for `(site, step)`.
fn firings(kinds: &[FaultKind], site: &str, step: u64) -> Vec<Firing> {
    if !active() {
        return Vec::new();
    }
    let guard = lock_plan();
    let Some(plan) = guard.as_ref() else { return Vec::new() };
    let mut out = Vec::new();
    for (ix, spec) in plan.specs.iter().enumerate() {
        if !kinds.contains(&spec.kind) || !spec.covers(site, step) {
            continue;
        }
        let h = rng::decision_hash(plan.seed, ix, site, step);
        if rng::unit_f64(h) < spec.probability {
            out.push(Firing { kind: spec.kind, magnitude: spec.magnitude, hash: h });
        }
    }
    out
}

fn record_injection(f: &Firing, site: &str, step: u64, detail: u64) {
    INJECTED.fetch_add(1, Ordering::Relaxed);
    sfn_obs::counter_add("faults.injected", 1);
    sfn_obs::event(Level::Warn, "fault.injected")
        .field_str("fault", f.kind.as_str())
        .field_str("site", site)
        .field_u64("step", step)
        .field_f64("mag", f.magnitude)
        .field_u64("detail", detail)
        .emit();
}

/// Poisons `values` with NaN/Inf if an output-corruption spec fires for
/// `(site, step)`. The poisoned fraction is the spec magnitude (at
/// least one value). Returns true when anything was corrupted.
pub fn corrupt_field(site: &str, step: u64, values: &mut [f64]) -> bool {
    if !active() || values.is_empty() {
        return false;
    }
    let mut any = false;
    for f in firings(&[FaultKind::NanOutput, FaultKind::InfOutput], site, step) {
        let n = values.len();
        let count = ((f.magnitude * n as f64).ceil() as usize).clamp(1, n);
        let stride = (n / count).max(1);
        let offset = (f.hash as usize) % stride;
        let poison = if f.kind == FaultKind::NanOutput { f64::NAN } else { f64::INFINITY };
        let mut poisoned = 0u64;
        let mut i = offset;
        while i < n && poisoned < count as u64 {
            values[i] = poison;
            poisoned += 1;
            i += stride;
        }
        record_injection(&f, site, step, poisoned);
        any = true;
    }
    any
}

/// Returns the injected residual-error scale if a solver-starvation
/// spec fires for `(site, step)`: the host solver should report
/// non-convergence and degrade its answer by this factor.
pub fn starve_solver(site: &str, step: u64) -> Option<f64> {
    if !active() {
        return None;
    }
    let f = firings(&[FaultKind::SolverStarvation], site, step).into_iter().next()?;
    record_injection(&f, site, step, 0);
    Some(f.magnitude)
}

/// Returns the extra latency to sleep if a latency-spike spec fires
/// for `(site, step)`. Magnitude is in milliseconds.
pub fn latency_spike(site: &str, step: u64) -> Option<Duration> {
    if !active() {
        return None;
    }
    let f = firings(&[FaultKind::LatencySpike], site, step).into_iter().next()?;
    record_injection(&f, site, step, f.magnitude as u64);
    Some(Duration::from_micros((f.magnitude * 1000.0) as u64))
}

/// Serving-path fault: drip-feed pacing for a client's socket bytes.
/// Returns the delay to sleep between chunks when a `slow_client` spec
/// fires for `(site, step)` (magnitude = milliseconds), else `None`.
pub fn slow_client(site: &str, step: u64) -> Option<Duration> {
    if !active() {
        return None;
    }
    let f = firings(&[FaultKind::SlowClient], site, step).into_iter().next()?;
    record_injection(&f, site, step, f.magnitude as u64);
    Some(Duration::from_micros((f.magnitude * 1000.0) as u64))
}

/// Serving-path fault: abrupt connection reset. Returns true when a
/// `conn_reset` spec fires for `(site, step)` — the caller drops the
/// socket without responding.
pub fn conn_reset(site: &str, step: u64) -> bool {
    if !active() {
        return false;
    }
    let Some(f) = firings(&[FaultKind::ConnReset], site, step).into_iter().next() else {
        return false;
    };
    record_injection(&f, site, step, 0);
    true
}

/// Serving-path fault: a wedged queue hand-off. Returns the stall to
/// sleep before dequeuing when a `queue_stall` spec fires for
/// `(site, step)` (magnitude = milliseconds), else `None`.
pub fn queue_stall(site: &str, step: u64) -> Option<Duration> {
    if !active() {
        return None;
    }
    let f = firings(&[FaultKind::QueueStall], site, step).into_iter().next()?;
    record_injection(&f, site, step, f.magnitude as u64);
    Some(Duration::from_micros((f.magnitude * 1000.0) as u64))
}

/// Corrupts a just-read artifact byte buffer if an artifact-corruption
/// spec fires for this site's next invocation: magnitude < 1 flips that
/// fraction of bytes, magnitude ≥ 1 truncates the buffer to half.
/// Returns true when the buffer was damaged.
pub fn corrupt_bytes(site: &str, bytes: &mut Vec<u8>) -> bool {
    if !active() || bytes.is_empty() {
        return false;
    }
    let step = {
        let mut counters = site_counters().lock().unwrap_or_else(|e| e.into_inner());
        let c = counters.entry(site.to_string()).or_insert(0);
        let step = *c;
        *c += 1;
        step
    };
    let Some(f) = firings(&[FaultKind::ArtifactCorruption], site, step).into_iter().next() else {
        return false;
    };
    let detail = if f.magnitude >= 1.0 {
        bytes.truncate(bytes.len() / 2);
        bytes.len() as u64
    } else {
        let n = bytes.len();
        let count = ((f.magnitude * n as f64).ceil() as usize).clamp(1, n);
        let stride = (n / count).max(1);
        let mut i = (f.hash as usize) % stride;
        let mut flipped = 0u64;
        while i < n && flipped < count as u64 {
            bytes[i] ^= 0xFF;
            flipped += 1;
            i += stride;
        }
        flipped
    };
    record_injection(&f, site, step, detail);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultSpec;
    use std::sync::{Mutex as TestMutex, MutexGuard as TestGuard};

    // The injector is process-global; tests serialise on this lock.
    fn hold() -> TestGuard<'static, ()> {
        static LOCK: TestMutex<()> = TestMutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn plan_with(spec: FaultSpec) -> FaultPlan {
        FaultPlan::seeded(42).with(spec)
    }

    #[test]
    fn disabled_hooks_do_nothing() {
        let _g = hold();
        install(None);
        let mut values = vec![1.0, 2.0, 3.0];
        assert!(!corrupt_field("any", 0, &mut values));
        assert_eq!(values, vec![1.0, 2.0, 3.0]);
        assert!(starve_solver("any", 0).is_none());
        assert!(latency_spike("any", 0).is_none());
        let mut bytes = vec![1u8, 2, 3];
        assert!(!corrupt_bytes("any", &mut bytes));
        assert_eq!(bytes, vec![1, 2, 3]);
        assert!(slow_client("any", 0).is_none());
        assert!(!conn_reset("any", 0));
        assert!(queue_stall("any", 0).is_none());
        assert_eq!(injected_count(), 0);
    }

    #[test]
    fn serving_path_hooks_fire_under_their_specs() {
        let _g = hold();
        install(Some(
            plan_with(FaultSpec::new(FaultKind::SlowClient))
                .with(FaultSpec::new(FaultKind::ConnReset))
                .with(FaultSpec::new(FaultKind::QueueStall)),
        ));
        let pace = slow_client("serve/conn", 0).expect("slow_client fires at p=1");
        assert_eq!(pace, Duration::from_millis(FaultKind::SlowClient.default_magnitude() as u64));
        assert!(conn_reset("serve/conn", 0));
        let stall = queue_stall("serve/queue", 0).expect("queue_stall fires at p=1");
        assert_eq!(stall, Duration::from_millis(FaultKind::QueueStall.default_magnitude() as u64));
        assert_eq!(injected_count(), 3);

        // A windowed spec stays quiet outside its step window.
        let mut spec = FaultSpec::new(FaultKind::ConnReset);
        spec.start = 10;
        spec.end = Some(11);
        install(Some(plan_with(spec)));
        assert!(!conn_reset("serve/conn", 9));
        assert!(conn_reset("serve/conn", 10));
        assert!(!conn_reset("serve/conn", 11));
        install(None);
    }

    #[test]
    fn nan_corruption_poisons_requested_fraction() {
        let _g = hold();
        let mut spec = FaultSpec::new(FaultKind::NanOutput);
        spec.magnitude = 0.25;
        install(Some(plan_with(spec)));
        let mut values = vec![1.0; 64];
        assert!(corrupt_field("projector/M7", 3, &mut values));
        let nans = values.iter().filter(|v| v.is_nan()).count();
        assert_eq!(nans, 16, "expected ceil(0.25 * 64) poisoned values");
        assert_eq!(injected_count(), 1);
        install(None);
    }

    #[test]
    fn inf_corruption_uses_infinity() {
        let _g = hold();
        let mut spec = FaultSpec::new(FaultKind::InfOutput);
        spec.magnitude = 0.01;
        install(Some(plan_with(spec)));
        let mut values = vec![0.0; 10];
        assert!(corrupt_field("site", 0, &mut values));
        assert!(values.iter().any(|v| v.is_infinite()), "{values:?}");
        assert!(values.iter().all(|v| !v.is_nan()));
        install(None);
    }

    #[test]
    fn window_and_target_gate_injection() {
        let _g = hold();
        let mut spec = FaultSpec::new(FaultKind::NanOutput);
        spec.start = 10;
        spec.end = Some(12);
        spec.target = Some("M7".into());
        install(Some(plan_with(spec)));
        let mut v = vec![1.0; 4];
        assert!(!corrupt_field("projector/M7", 9, &mut v));
        assert!(!corrupt_field("projector/M8", 10, &mut v));
        assert!(corrupt_field("projector/M7", 10, &mut v));
        assert!(!corrupt_field("projector/M7", 12, &mut v));
        install(None);
    }

    #[test]
    fn decisions_are_reproducible_across_installs() {
        let _g = hold();
        let mut spec = FaultSpec::new(FaultKind::SolverStarvation);
        spec.probability = 0.5;
        let fired: Vec<bool> = {
            install(Some(plan_with(spec.clone())));
            (0..64).map(|k| starve_solver("pcg", k).is_some()).collect()
        };
        install(Some(plan_with(spec)));
        let again: Vec<bool> = (0..64).map(|k| starve_solver("pcg", k).is_some()).collect();
        assert_eq!(fired, again);
        // p = 0.5 over 64 draws: both outcomes must appear.
        assert!(fired.iter().any(|&b| b) && fired.iter().any(|&b| !b));
        install(None);
    }

    #[test]
    fn latency_spike_returns_configured_duration() {
        let _g = hold();
        let mut spec = FaultSpec::new(FaultKind::LatencySpike);
        spec.magnitude = 2.5;
        install(Some(plan_with(spec)));
        assert_eq!(latency_spike("nn", 0), Some(Duration::from_micros(2500)));
        install(None);
    }

    #[test]
    fn byte_corruption_flips_and_truncates() {
        let _g = hold();
        let mut flip = FaultSpec::new(FaultKind::ArtifactCorruption);
        flip.magnitude = 0.5;
        install(Some(plan_with(flip)));
        let original = vec![0u8; 16];
        let mut bytes = original.clone();
        assert!(corrupt_bytes("cache", &mut bytes));
        assert_eq!(bytes.len(), 16);
        assert!(bytes.iter().any(|&b| b != 0), "no byte flipped");

        let mut truncate = FaultSpec::new(FaultKind::ArtifactCorruption);
        truncate.magnitude = 1.0;
        install(Some(plan_with(truncate)));
        let mut bytes = original.clone();
        assert!(corrupt_bytes("cache", &mut bytes));
        assert_eq!(bytes.len(), 8, "mag >= 1 truncates to half");
        install(None);
    }

    #[test]
    fn site_counter_advances_per_invocation() {
        let _g = hold();
        let mut spec = FaultSpec::new(FaultKind::ArtifactCorruption);
        spec.start = 1; // skip the first read, corrupt the second
        spec.end = Some(2);
        install(Some(plan_with(spec)));
        let mut first = vec![7u8; 8];
        let mut second = vec![7u8; 8];
        let mut third = vec![7u8; 8];
        assert!(!corrupt_bytes("cache", &mut first));
        assert!(corrupt_bytes("cache", &mut second));
        assert!(!corrupt_bytes("cache", &mut third));
        install(None);
    }

    #[test]
    fn recovery_counter_tracks_notes() {
        let _g = hold();
        install(Some(FaultPlan::seeded(1)));
        assert_eq!(recovered_count(), 0);
        note_recovery("runtime/rollback");
        note_recovery("core/cache");
        assert_eq!(recovered_count(), 2);
        install(None);
    }

    #[test]
    fn install_resets_counters() {
        let _g = hold();
        install(Some(plan_with(FaultSpec::new(FaultKind::NanOutput))));
        let mut v = vec![1.0; 4];
        corrupt_field("s", 0, &mut v);
        assert!(injected_count() > 0);
        install(Some(FaultPlan::seeded(9)));
        assert_eq!(injected_count(), 0);
        assert_eq!(recovered_count(), 0);
        install(None);
    }

    #[test]
    fn probability_zero_never_fires() {
        let _g = hold();
        let mut spec = FaultSpec::new(FaultKind::NanOutput);
        spec.probability = 0.0;
        install(Some(plan_with(spec)));
        let mut v = vec![1.0; 8];
        for step in 0..256 {
            assert!(!corrupt_field("s", step, &mut v));
        }
        install(None);
    }
}
