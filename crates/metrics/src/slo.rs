//! Declarative SLOs and multi-window burn rates.
//!
//! Each objective defines a *bad-event fraction* over a window — the
//! share of steps that tripped the divergence guard, the share of
//! step latencies above the target — and a *budget*, the fraction the
//! service is allowed to burn. The burn rate is their ratio:
//!
//! ```text
//! burn(window) = bad_fraction(window) / budget
//! ```
//!
//! `burn == 1` means the error budget is being consumed exactly as
//! fast as it accrues; `burn == 30` means a 1% budget is burning at
//! 30% bad events. An objective is **burning** (degrading `/healthz`)
//! while `fast_burn ≥ fast_factor` **and** `slow_burn ≥ slow_factor`
//! — the classic multi-window rule: the fast window reacts quickly,
//! the slow window keeps one noisy slot from paging, and recovery is
//! driven by the fast window draining. State transitions emit
//! `slo.burn` events.

use crate::hub::{Hub, HubInner};
use sfn_obs::{bucket_index, EventBuilder, Level};

/// How an objective measures its bad-event fraction.
#[derive(Debug, Clone)]
pub enum SloKind {
    /// Fraction of windowed samples of `series` whose log2 bucket lies
    /// strictly above the bucket containing `threshold_secs`. Bucket
    /// granularity slightly under-counts (samples above the threshold
    /// inside its own bucket are not flagged), which biases the alarm
    /// towards quiet — never towards flapping.
    LatencyAbove {
        /// Histogram series name (e.g. `runtime.step_secs`).
        series: String,
        /// Latency target in seconds.
        threshold_secs: f64,
    },
    /// Windowed `numerator / denominator` of two counters (e.g.
    /// quarantines per step). A zero denominator reads as no traffic
    /// and burns nothing.
    RatePer {
        /// Counter counting bad events.
        numerator: String,
        /// Counter counting opportunities.
        denominator: String,
    },
}

/// One declarative objective.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Stable identifier (label value in the exposition).
    pub name: String,
    /// The measured bad-event fraction.
    pub kind: SloKind,
    /// Allowed bad-event fraction (the error budget).
    pub budget: f64,
}

/// The objective set plus the multi-window alarm factors.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Objectives evaluated every collector tick.
    pub objectives: Vec<SloSpec>,
    /// Fast-window burn factor required to start burning.
    pub fast_factor: f64,
    /// Slow-window burn factor required to start burning.
    pub slow_factor: f64,
}

impl Default for SloConfig {
    /// The three stock objectives: step p99 under 250 ms, and 1 %
    /// budgets for guard trips and rollbacks.
    fn default() -> Self {
        let objectives = vec![
            SloSpec {
                name: "step-latency".into(),
                kind: SloKind::LatencyAbove {
                    series: "runtime.step_secs".into(),
                    threshold_secs: 0.25,
                },
                budget: 0.01,
            },
            SloSpec {
                name: "divergence-guard-trips".into(),
                kind: SloKind::RatePer {
                    numerator: "runtime.quarantines".into(),
                    denominator: "runtime.steps".into(),
                },
                budget: 0.01,
            },
            SloSpec {
                name: "rollback-rate".into(),
                kind: SloKind::RatePer {
                    numerator: "runtime.rollbacks".into(),
                    denominator: "runtime.steps".into(),
                },
                budget: 0.01,
            },
        ];
        Self { objectives, fast_factor: 2.0, slow_factor: 1.0 }
    }
}

/// Last evaluation of one objective.
#[derive(Debug, Clone)]
pub struct SloState {
    /// The objective.
    pub spec: SloSpec,
    /// Burn rate over the fast window.
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// True while the multi-window rule holds.
    pub burning: bool,
}

pub(crate) fn initial_state(cfg: &SloConfig) -> Vec<SloState> {
    cfg.objectives
        .iter()
        .map(|spec| SloState { spec: spec.clone(), fast_burn: 0.0, slow_burn: 0.0, burning: false })
        .collect()
}

/// Fraction of a windowed snapshot's finite samples whose bucket lies
/// strictly above the bucket containing `threshold`.
pub fn fraction_above(snap: &sfn_obs::HistogramSnapshot, threshold: f64) -> f64 {
    let finite: u64 = snap.buckets.iter().fold(0u64, |acc, &c| acc.saturating_add(c));
    if finite == 0 {
        return 0.0;
    }
    let cut = bucket_index(threshold);
    let above: u64 = snap.buckets[cut + 1..].iter().fold(0u64, |acc, &c| acc.saturating_add(c));
    above as f64 / finite as f64
}

pub(crate) struct Transitions {
    pub reasons: Vec<String>,
    pub events: Vec<EventBuilder>,
}

fn burn_of(spec: &SloSpec, inner: &mut HubInner, epoch: u64, slots: usize) -> f64 {
    let bad = match &spec.kind {
        SloKind::LatencyAbove { series, threshold_secs } => {
            let snap = Hub::window_of_inner(inner, series, epoch, slots);
            fraction_above(&snap, *threshold_secs)
        }
        SloKind::RatePer { numerator, denominator } => {
            let den = Hub::counter_window_of_inner(inner, denominator, epoch, slots);
            if den == 0 {
                return 0.0;
            }
            let num = Hub::counter_window_of_inner(inner, numerator, epoch, slots);
            num as f64 / den as f64
        }
    };
    bad / spec.budget.max(1e-9)
}

/// One SLO pass over the hub's rings (called under the hub lock by the
/// collector). Returns the degraded reasons and the `slo.burn`
/// transition events to emit *after* the lock is released.
pub(crate) fn evaluate(
    cfg: &SloConfig,
    inner: &mut HubInner,
    epoch: u64,
    (fast_slots, slow_slots): (usize, usize),
) -> Transitions {
    let mut reasons = Vec::new();
    let mut events = Vec::new();
    let mut states = std::mem::take(&mut inner.slo);
    for state in &mut states {
        state.fast_burn = burn_of(&state.spec, inner, epoch, fast_slots);
        state.slow_burn = burn_of(&state.spec, inner, epoch, slow_slots);
        let now_burning =
            state.fast_burn >= cfg.fast_factor && state.slow_burn >= cfg.slow_factor;
        if now_burning != state.burning {
            let level = if now_burning { Level::Warn } else { Level::Info };
            events.push(
                sfn_obs::event(level, "slo.burn")
                    .field_str("objective", &state.spec.name)
                    .field_f64("fast_burn", state.fast_burn)
                    .field_f64("slow_burn", state.slow_burn)
                    .field_str("state", if now_burning { "burning" } else { "recovered" }),
            );
        }
        state.burning = now_burning;
        if now_burning {
            reasons.push(format!(
                "slo {} burning: fast {:.1}x, slow {:.1}x over budget",
                state.spec.name, state.fast_burn, state.slow_burn
            ));
        }
    }
    inner.slo = states;
    Transitions { reasons, events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_obs::Histogram;

    #[test]
    fn fraction_above_counts_only_strictly_higher_buckets() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(0.01); // well below
        }
        for _ in 0..10 {
            h.record(1.0); // well above a 0.25 target
        }
        let f = fraction_above(&h.snapshot(), 0.25);
        assert!((f - 0.10).abs() < 1e-9, "fraction {f}");
        // Samples inside the threshold's own bucket do not count.
        let h2 = Histogram::new();
        h2.record(0.3); // same [0.25, 0.5) bucket as the target
        assert_eq!(fraction_above(&h2.snapshot(), 0.25), 0.0);
        assert_eq!(fraction_above(&Histogram::new().snapshot(), 0.25), 0.0);
    }

    #[test]
    fn default_objectives_cover_the_three_slos() {
        let cfg = SloConfig::default();
        let names: Vec<&str> = cfg.objectives.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["step-latency", "divergence-guard-trips", "rollback-rate"]);
        assert!(cfg.fast_factor > cfg.slow_factor);
    }
}
