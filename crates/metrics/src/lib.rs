//! sfn-metrics — live in-process metrics for smart-fluidnet.
//!
//! The crate turns the aggregates the codebase already maintains
//! (sfn-obs lock-free counters and histograms, the structured event
//! stream) into a live, scrapeable surface:
//!
//! * a [`hub::Hub`] holding sliding-window quantile series (last-60s /
//!   last-10m by default), windowed counter rates, gauges, and the
//!   roster/kernel/fault tallies;
//! * an obs→metrics [`bridge`] observing every emitted event —
//!   `runtime.step`, `scheduler.decision`, `fault.injected`,
//!   `prof.kernel` — with **zero new instrumentation
//!   call sites** in the emitting crates;
//! * a declarative [`slo`] engine computing multi-window error-budget
//!   burn rates and flipping `/healthz` to degraded;
//! * a hand-rolled [`http`] server (on `std::net::TcpListener`)
//!   exposing `/metrics` (Prometheus text exposition, rendered by
//!   [`expo`]), `/healthz`, and `/snapshot.json` (the
//!   `sfn-metrics/live@1` document rendered by [`snapshot`], which
//!   `sfn-trace top` consumes).
//!
//! Hot-path cost model: the emitting crates never call into this one —
//! they emit events, and the bridge turns each into lock-free sfn-obs
//! atomics plus, for roster/kernel/fault tallies, one short hub update;
//! the hub's mutex is otherwise taken only by the once-a-second
//! collector tick and by scrapes.
//!
//! Enable by setting `SFN_METRICS_ADDR` (e.g. `127.0.0.1:9900`) in a
//! process whose entry point calls [`serve_from_env`]: `run_all`,
//! `sfn_metrics_demo`, and every `sfn_serve::serve` server. The
//! runtime, single-figure binaries and examples never start it.

#![warn(missing_docs)]

pub mod bridge;
pub mod expo;
pub mod http;
pub mod hub;
pub mod slo;
pub mod snapshot;

pub use expo::validate_exposition;
pub use http::{serve, ServerHandle};
pub use hub::{Config, Health, Hub, ModelStat, Window};
pub use slo::{SloConfig, SloKind, SloSpec, SloState};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Arc<Hub>> = OnceLock::new();

/// The process-wide hub, created from [`Config::from_env`] on first
/// use (or by an earlier [`init_global`] call).
pub fn global() -> Arc<Hub> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(Hub::new(Config::from_env()))))
}

/// Installs `cfg` as the global hub's configuration. Returns `false`
/// if the global hub already existed (the configuration is kept and
/// `cfg` is dropped) — call this before anything touches [`global`].
pub fn init_global(cfg: Config) -> bool {
    let mut installed = false;
    GLOBAL.get_or_init(|| {
        installed = true;
        Arc::new(Hub::new(cfg))
    });
    installed
}

/// Starts serving the global hub on `addr`: installs the event
/// bridge, binds the listener and spawns the collector. The returned
/// handle's threads are detached — dropping it keeps the endpoint
/// alive; call [`ServerHandle::stop`] to shut down.
pub fn start_global(addr: &str) -> std::io::Result<ServerHandle> {
    let hub = global();
    bridge::install(Arc::clone(&hub));
    let handle = http::serve(hub, addr)?;
    sfn_obs::event(sfn_obs::Level::Info, "metrics.serving")
        .field_str("addr", &handle.addr.to_string())
        .emit();
    Ok(handle)
}

/// Starts the metrics endpoint if `SFN_METRICS_ADDR` is set (e.g.
/// `127.0.0.1:9900`). Idempotent — the first call wins; later calls
/// (and calls with the variable unset) return `None`. A bind failure
/// is logged, not fatal: simulations must not die because a metrics
/// port is taken.
pub fn serve_from_env() -> Option<ServerHandle> {
    static STARTED: AtomicBool = AtomicBool::new(false);
    let addr = match std::env::var("SFN_METRICS_ADDR") {
        Ok(a) if !a.trim().is_empty() => a.trim().to_string(),
        _ => return None,
    };
    if STARTED.swap(true, Ordering::SeqCst) {
        return None;
    }
    match start_global(&addr) {
        Ok(handle) => Some(handle),
        Err(e) => {
            sfn_obs::log(
                sfn_obs::Level::Warn,
                &format!("SFN_METRICS_ADDR={addr}: bind failed ({e}); metrics endpoint disabled"),
            );
            None
        }
    }
}

/// One objective's burn-rate reading, flattened from [`SloState`] for
/// overload controllers (sfn-serve's brownout loop polls this once a
/// tick and maps sustained burn onto degradation rungs).
#[derive(Debug, Clone, PartialEq)]
pub struct BurnReading {
    /// Objective name (e.g. `step-latency`).
    pub name: String,
    /// Burn rate over the fast window.
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// True while the objective's multi-window rule holds.
    pub burning: bool,
}

/// Burn-rate snapshot of every objective on the global hub, as of the
/// last collector tick (call [`Hub::collect_now`] first for a fresh
/// evaluation). Works whether or not an HTTP endpoint is serving —
/// reading burn rates must not require opening a port.
pub fn burn_rates() -> Vec<BurnReading> {
    global()
        .slo_states()
        .into_iter()
        .map(|s| BurnReading {
            name: s.spec.name.clone(),
            fast_burn: s.fast_burn,
            slow_burn: s.slow_burn,
            burning: s.burning,
        })
        .collect()
}

/// The highest fast-window burn rate across objectives and whether any
/// objective is currently burning — the two numbers an overload
/// controller actually branches on.
pub fn worst_burn() -> (f64, bool) {
    let mut worst = 0.0f64;
    let mut burning = false;
    for r in burn_rates() {
        worst = worst.max(r.fast_burn);
        burning |= r.burning;
    }
    (worst, burning)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_global_first_call_wins() {
        let custom = Config { slot_millis: 123, ..Config::default() };
        let first = init_global(custom);
        if first {
            assert_eq!(global().config().slot_millis, 123);
        }
        // Whether or not another test beat us to the first init, a
        // second call must report "already installed".
        assert!(!init_global(Config::default()));
    }

    #[test]
    fn burn_rates_read_every_objective_without_an_endpoint() {
        // No HTTP listener, no collector thread: the read API alone
        // must surface one reading per configured objective.
        let readings = burn_rates();
        assert_eq!(readings.len(), global().config().slo.objectives.len());
        assert!(!readings.is_empty(), "stock SLO config has objectives");
        for r in &readings {
            assert!(!r.name.is_empty());
            assert!(r.fast_burn >= 0.0 && r.slow_burn >= 0.0);
        }
        let (worst, _burning) = worst_burn();
        assert!(worst >= 0.0);
    }
}
