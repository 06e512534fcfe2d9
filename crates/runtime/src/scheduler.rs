//! The quality-aware model-switch algorithm (Algorithm 2), hardened
//! with a self-healing loop.
//!
//! The runtime starts with the candidate the MLP rates most likely to
//! meet the requirement, then at every check interval predicts the
//! final quality loss (`CumDivNorm` regression → KNN lookup) and
//! switches to a more accurate model when the prediction violates the
//! requirement, to a faster one when there is comfortable slack, and
//! restarts with PCG when no candidate can satisfy the requirement.
//!
//! On top of Algorithm 2 the loop carries a fault-recovery layer:
//!
//! * a **rollback anchor** (a clone of the simulation, its tracker and
//!   the step counter) is refreshed at every healthy check interval;
//! * a corrupted step (NaN/∞ state or `DivNorm`) **strikes** the running
//!   model in a [`QuarantineTable`], rolls the simulation back to the
//!   anchor and switches to the best available replacement — far
//!   cheaper than the from-scratch PCG restart of Algorithm 2 line 16;
//! * when every candidate is quarantined or ejected the run **degrades**
//!   to the exact PCG projector from the anchor onward — a
//!   guaranteed-terminal path: no further model can corrupt the state.
//!
//! Termination: every loop iteration either advances the step counter
//! or records a strike; strikes are bounded by `MAX_STRIKES` per model,
//! and once all models are barred the degraded tail is a straight loop.

use crate::cumdiv::CumDivNormTracker;
use crate::error::RuntimeError;
use crate::knn::KnnDatabase;
use crate::quarantine::{QuarantineDecision, QuarantineTable};
use sfn_grid::Field2;
use sfn_nn::network::SavedModel;
use sfn_obs::json::{obj, FromJson, JsonError, ToJson, Value};
use sfn_obs::{Level, ScopedTimer};
use sfn_sim::{ExactProjector, PressureProjector, Simulation, StepStats};
use sfn_solver::{MicPreconditioner, PcgSolver};
use sfn_surrogate::NeuralProjector;

/// One candidate network with its offline statistics.
#[derive(Debug, Clone)]
pub struct CandidateModel {
    /// Display name (`M7` style).
    pub name: String,
    /// Trained weights.
    pub saved: SavedModel,
    /// MLP-predicted probability of meeting the requirement.
    pub probability: f64,
    /// Offline mean execution time per simulation (seconds).
    pub exec_time: f64,
    /// Offline mean quality loss (accuracy rank; lower = better).
    pub quality_loss: f64,
}

/// Scheduler parameters.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// The check interval `L` (paper default 5).
    pub check_interval: usize,
    /// Total simulation steps `N`.
    pub total_steps: usize,
    /// Quality requirement `q` (Eq. 3 loss target).
    pub quality_target: f64,
    /// Relative "close to q" band of Algorithm 2 line 9 (e.g. 0.15 =
    /// predictions within ±15% of `q` keep the current model).
    pub tolerance: f64,
    /// Use MLP probabilities to pick the starting model (Figure 12's
    /// "with MLP"); otherwise start from the fastest candidate and only
    /// escalate, mimicking the paper's no-MLP baseline.
    pub use_mlp: bool,
    /// Enable Algorithm 2's model switching. With `false` the starting
    /// model runs to completion unchecked — the "static" policy every
    /// single-model baseline in the paper implicitly uses; exposed for
    /// the scheduler ablation. Corruption recovery stays active either
    /// way: it is a safety net, not part of the ablated policy.
    pub adaptive: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            check_interval: 5,
            total_steps: 64,
            quality_target: 0.013,
            tolerance: 0.15,
            use_mlp: true,
            adaptive: true,
        }
    }
}

/// External bounds on one run, checked at step boundaries. The serving
/// layer attaches a request's deadline budget and (under brownout) a
/// reduced step budget; a run that hits either sheds the remaining
/// work instead of running to completion.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunLimits {
    /// Wall-clock deadline. Checked after every step (including the
    /// PCG restart/degraded tails), so a run overshoots its budget by
    /// at most one step.
    pub deadline: Option<std::time::Instant>,
    /// Hard cap on executed steps, overriding `total_steps` when
    /// smaller. Rolled-back steps count: the budget bounds work done,
    /// not progress achieved.
    pub max_steps: Option<usize>,
}

impl RunLimits {
    /// No bounds — the behaviour of [`SmartRuntime::run`].
    pub fn none() -> Self {
        Self::default()
    }

    /// Which bound (if any) the run has hit at `step` after `executed`
    /// total executed steps. A hit is reported as one `runtime.shed`
    /// record: the serving layer and `sfn-trace` both key off it to
    /// distinguish a deadline shed from a completed run.
    fn shed(&self, step: usize, executed: usize) -> Option<Truncation> {
        let hit = if self.max_steps.is_some_and(|max| executed >= max) {
            Truncation::StepBudget { step }
        } else if self.deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            Truncation::DeadlineExpired { step }
        } else {
            return None;
        };
        sfn_obs::counter_add("runtime.sheds", 1);
        sfn_obs::event(Level::Warn, "runtime.shed")
            .field_u64("step", step as u64)
            .field_str("reason", hit.reason())
            .field_u64("executed", executed as u64)
            .emit();
        Some(hit)
    }
}

/// Why a bounded run stopped before `total_steps`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truncation {
    /// The [`RunLimits::deadline`] passed; work past `step` was shed.
    DeadlineExpired {
        /// Last completed simulation step.
        step: usize,
    },
    /// The [`RunLimits::max_steps`] budget was consumed at `step`.
    StepBudget {
        /// Last completed simulation step.
        step: usize,
    },
}

impl Truncation {
    /// Stable label used in `runtime.shed` events.
    pub fn reason(&self) -> &'static str {
        match self {
            Truncation::DeadlineExpired { .. } => "deadline",
            Truncation::StepBudget { .. } => "step_budget",
        }
    }

    /// Last completed step before the shed.
    pub fn step(&self) -> usize {
        match self {
            Truncation::DeadlineExpired { step } | Truncation::StepBudget { step } => *step,
        }
    }
}

/// The Algorithm 2 line 8-16 verdict at one check interval, carrying
/// the switch target with it so acting on the decision can never
/// dereference an empty candidate neighbourhood (the verdict is typed,
/// not a string to re-interpret).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Escalate to the (available) candidate at this index.
    SwitchUp(usize),
    /// Relax to the (available) candidate at this index.
    SwitchDown(usize),
    /// No available candidate can meet the target: restart on PCG.
    Restart,
    /// Prediction inside the band (or nowhere better to go).
    Keep,
}

impl Action {
    /// Stable label for `scheduler.decision` events (the audit replay
    /// contract).
    fn as_str(&self) -> &'static str {
        match self {
            Action::SwitchUp(_) => "switch_up",
            Action::SwitchDown(_) => "switch_down",
            Action::Restart => "restart",
            Action::Keep => "keep",
        }
    }
}

/// Algorithm 2 lines 8–16 as a pure function: the verdict for a
/// predicted final quality loss against the band `[lo, hi]` around the
/// requirement. `up` / `down` are the nearest *available* candidates
/// above and below the running one (the caller applies quarantine);
/// `use_mlp` gates relaxation to a faster model.
pub fn decide(
    predicted_loss: f64,
    lo: f64,
    hi: f64,
    use_mlp: bool,
    up: Option<usize>,
    down: Option<usize>,
) -> Action {
    if predicted_loss > hi {
        // Line 16: nothing more accurate left — fall back to PCG.
        up.map_or(Action::Restart, Action::SwitchUp)
    } else if predicted_loss < lo && use_mlp {
        // Comfortable slack: move to a faster model — unless quarantine
        // emptied the neighbourhood below, in which case there is
        // nowhere to relax to and we keep.
        down.map_or(Action::Keep, Action::SwitchDown)
    } else {
        Action::Keep
    }
}

/// A scheduling event, for telemetry and tests.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerEvent {
    /// Switched models at `step` because the predicted loss crossed the
    /// requirement.
    Switch {
        /// Simulation step of the decision.
        step: usize,
        /// Model before the switch.
        from: String,
        /// Model after the switch.
        to: String,
        /// Predicted final quality loss that triggered the decision.
        predicted_loss: f64,
    },
    /// All candidates exhausted; restarted the whole run with PCG.
    Restart {
        /// Simulation step of the decision.
        step: usize,
        /// Predicted final quality loss that triggered the restart.
        predicted_loss: f64,
    },
    /// A model corrupted the state and was struck into quarantine.
    Quarantine {
        /// Simulation step at which the corruption was detected.
        step: usize,
        /// The struck model.
        model: String,
        /// Strikes accumulated by the model so far.
        strikes: u32,
        /// First check interval at which it may run again, or `None`
        /// when the strike ejected it for the rest of the run.
        until_interval: Option<u64>,
    },
    /// The simulation was rolled back to the last healthy checkpoint
    /// and handed to a replacement model.
    Rollback {
        /// Step at which the corruption was detected.
        step: usize,
        /// Checkpoint step the simulation was restored to.
        to_step: usize,
        /// The corrupting model.
        from: String,
        /// The replacement model.
        to: String,
    },
    /// Every candidate was quarantined or ejected; the run finishes on
    /// the exact PCG projector from the checkpoint onward.
    Degrade {
        /// Checkpoint step the degraded tail resumed from.
        step: usize,
        /// Candidates barred at the time of degradation.
        barred: usize,
    },
}

impl ToJson for CandidateModel {
    fn to_json_value(&self) -> Value {
        obj([
            ("name", self.name.to_json_value()),
            ("saved", self.saved.to_json_value()),
            ("probability", self.probability.to_json_value()),
            ("exec_time", self.exec_time.to_json_value()),
            ("quality_loss", self.quality_loss.to_json_value()),
        ])
    }
}

impl FromJson for CandidateModel {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        Ok(CandidateModel {
            name: v.field("name")?,
            saved: v.field("saved")?,
            probability: v.field("probability")?,
            exec_time: v.field("exec_time")?,
            quality_loss: v.field("quality_loss")?,
        })
    }
}

/// The outcome of one scheduled simulation.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Final smoke density (the rendered frame).
    pub density: Field2,
    /// Scheduling events in order.
    pub events: Vec<SchedulerEvent>,
    /// Candidate names in scheduler order — the index space of
    /// `time_per_model` and `steps_per_model`.
    pub model_names: Vec<String>,
    /// Seconds of projection time attributed to each candidate, by
    /// candidate index (Table 3's time distribution). Rolled-back
    /// (wasted) steps stay attributed: the wall time was really spent.
    pub time_per_model: Vec<f64>,
    /// Steps executed by each candidate (including rolled-back steps).
    pub steps_per_model: Vec<usize>,
    /// Every checkpoint's `(step, predicted final quality loss)` —
    /// the runtime's internal belief trace, for diagnostics.
    pub predictions: Vec<(usize, f64)>,
    /// True if the run fell back to the original PCG simulation.
    pub restarted: bool,
    /// Projection seconds of the PCG fallback — the full restart of
    /// Algorithm 2 or the degraded tail (0 when neither happened).
    pub restart_time: f64,
    /// Total wall time of the run (including any restart).
    pub wall_time: f64,
    /// The `CumDivNorm` series of the final (surviving) run.
    pub cum_div_norm: Vec<f64>,
    /// Checkpoint rollbacks performed after corruption strikes.
    pub rollbacks: usize,
    /// True if every candidate was barred and the run finished on PCG
    /// from the last checkpoint (graceful degradation).
    pub degraded: bool,
    /// `(model, strikes)` for every candidate that was struck at least
    /// once during the run.
    pub quarantined: Vec<(String, u32)>,
    /// `Some` when a [`RunLimits`] bound stopped the run early (the
    /// density is the state at the shed boundary, still finite and
    /// renderable); `None` for a run-to-completion.
    pub truncation: Option<Truncation>,
}

/// The Algorithm 2 scheduler.
pub struct SmartRuntime {
    /// Candidates sorted from fastest/least-accurate to
    /// slowest/most-accurate (by offline quality loss, descending).
    candidates: Vec<CandidateModel>,
    projectors: Vec<NeuralProjector>,
    knn: KnnDatabase,
    config: RuntimeConfig,
}

impl SmartRuntime {
    /// Builds a runtime over the candidate set.
    ///
    /// A candidate whose snapshot fails to load is *demoted* — dropped
    /// from the set with a `scheduler.candidate_rejected` event — rather
    /// than panicking the runtime; the error is returned only when no
    /// candidate survives.
    pub fn try_new(
        mut candidates: Vec<CandidateModel>,
        knn: KnnDatabase,
        config: RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        if config.check_interval < 3 {
            return Err(RuntimeError::InvalidConfig(format!(
                "check interval {} too small for the regression (need >= 3)",
                config.check_interval
            )));
        }
        // Accuracy order: index 0 = least accurate (fastest end of the
        // Pareto front), last = most accurate.
        candidates.sort_by(|a, b| b.quality_loss.total_cmp(&a.quality_loss));
        let mut kept = Vec::with_capacity(candidates.len());
        let mut projectors = Vec::with_capacity(candidates.len());
        let mut rejected = Vec::new();
        for c in candidates {
            match NeuralProjector::try_from_saved(&c.saved, c.name.clone()) {
                Ok(projector) => {
                    projectors.push(projector);
                    kept.push(c);
                }
                Err(e) => {
                    let why = e.to_string();
                    sfn_obs::counter_add("scheduler.candidates_rejected", 1);
                    sfn_obs::event(Level::Warn, "scheduler.candidate_rejected")
                        .field_str("model", &c.name)
                        .field_str("reason", &why)
                        .emit();
                    rejected.push((c.name, why));
                }
            }
        }
        if kept.is_empty() {
            return Err(RuntimeError::NoUsableCandidates { rejected });
        }
        Ok(Self {
            candidates: kept,
            projectors,
            knn,
            config,
        })
    }

    /// Builds a runtime over the candidate set.
    ///
    /// # Panics
    /// Panics where [`SmartRuntime::try_new`] would return an error:
    /// no loadable candidate, or an invalid configuration.
    pub fn new(candidates: Vec<CandidateModel>, knn: KnnDatabase, config: RuntimeConfig) -> Self {
        Self::try_new(candidates, knn, config).expect("runtime construction failed")
    }

    /// The candidates in scheduler (accuracy) order.
    pub fn candidates(&self) -> &[CandidateModel] {
        &self.candidates
    }

    /// Index of the starting model per Algorithm 2 line 1 (highest MLP
    /// probability) or the no-MLP baseline (fastest model).
    fn start_index(&self) -> usize {
        if self.config.use_mlp {
            let mut best = 0;
            for (i, c) in self.candidates.iter().enumerate() {
                if c.probability > self.candidates[best].probability {
                    best = i;
                }
            }
            best
        } else {
            0 // least accurate = fastest end
        }
    }

    /// Runs one simulation under the scheduler.
    pub fn run(&mut self, sim: Simulation) -> RunOutcome {
        self.run_bounded(sim, RunLimits::none())
    }

    /// Runs one simulation under the scheduler with external bounds
    /// (deadline / step budget) checked at every step boundary — the
    /// serving entry point. A bounded run never panics on expiry; it
    /// sheds the remaining steps and reports the cut in
    /// [`RunOutcome::truncation`].
    pub fn run_bounded(&mut self, sim: Simulation, limits: RunLimits) -> RunOutcome {
        let cfg = self.config;
        let n_models = self.candidates.len();
        let timer = ScopedTimer::start("runtime/run");
        let mut events = Vec::new();
        let mut time_per_model = vec![0.0; n_models];
        let mut steps_per_model = vec![0usize; n_models];
        let mut predictions = Vec::new();
        let mut current = self.start_index();
        let mut restarted = false;
        let mut degraded = false;
        let mut rollbacks = 0usize;
        let mut quarantine = QuarantineTable::new(n_models);

        // DivNorm (Eq. 5) is an un-normalised sum over cells; dividing
        // by the cell count makes the KNN database — built offline on
        // *small* problems (§6.1) — transfer across grid sizes.
        let inv_cells = 1.0 / (sim.flags().nx() * sim.flags().ny()) as f64;

        let mut live = Cursor { sim, tracker: CumDivNormTracker::new(), step: 0 };
        // Algorithm 2 line 16 restarts from here.
        let fresh = live.clone();
        // The rollback anchor: the newest known-healthy state, refreshed
        // at every healthy check interval. Quarantine time is measured
        // in check-interval indices derived from the step counter, so a
        // rollback rewinds the backoff clock too.
        let mut anchor = live.clone();

        // Executed-step counter for `RunLimits::max_steps`: unlike
        // `live.step` it never rewinds on rollback, so a corruption
        // storm cannot stretch a bounded run past its work budget.
        let mut executed = 0usize;
        let mut truncation: Option<Truncation> = None;

        while live.step < cfg.total_steps {
            // Bound check first: `live` here is always the newest
            // healthy state (the corruption guard rolls back before
            // looping), so a shed result is degraded-but-valid, never
            // NaN soup.
            if let Some(t) = limits.shed(live.step, executed) {
                truncation = Some(t);
                break;
            }
            let stats = timed_step(
                &mut live.sim,
                &mut self.projectors[current],
                &self.candidates[current].name,
                live.step + 1,
                inv_cells,
                &mut live.tracker,
            );
            time_per_model[current] += stats.projection_time.as_secs_f64();
            steps_per_model[current] += 1;
            live.step += 1;
            executed += 1;

            // Corruption guard: a surrogate that produced NaNs or blew
            // the simulation up is struck and the state rolled back.
            if !live.sim.is_healthy() || !stats.div_norm.is_finite() {
                rollbacks += 1;
                match self.roll_back(&mut live, &anchor, &mut quarantine, current, &mut events) {
                    Some(next) => current = next,
                    None => {
                        degraded = true;
                        break;
                    }
                }
                continue;
            }

            if !live.step.is_multiple_of(cfg.check_interval) || live.step >= cfg.total_steps {
                continue;
            }
            // Healthy check interval: refresh the rollback anchor even
            // when the static policy skips the quality check.
            anchor = live.clone();
            if !cfg.adaptive {
                continue;
            }
            match self.check(&live, &quarantine, current, &mut predictions, &mut events) {
                Action::SwitchUp(to) | Action::SwitchDown(to) => current = to,
                Action::Restart => {
                    restarted = true;
                    break;
                }
                Action::Keep => {}
            }
        }

        // The exact-solver tail, from the anchor the rollback restored
        // when every model is barred and from step 0 on an Algorithm 2
        // restart.
        let mut restart_time = 0.0;
        if degraded || restarted {
            if restarted {
                live = fresh;
            }
            (restart_time, truncation) =
                exact_tail(&mut live, restarted, limits, &mut executed, inv_cells, cfg.total_steps);
        }

        let quarantined = self
            .candidates
            .iter()
            .enumerate()
            .filter(|&(i, _)| quarantine.strikes(i) > 0)
            .map(|(i, c)| (c.name.clone(), quarantine.strikes(i)))
            .collect();

        RunOutcome {
            density: live.sim.density().clone(),
            events,
            model_names: self.candidates.iter().map(|c| c.name.clone()).collect(),
            time_per_model,
            steps_per_model,
            predictions,
            restarted,
            restart_time,
            wall_time: timer.stop().as_secs_f64(),
            cum_div_norm: live.tracker.series().to_vec(),
            rollbacks,
            degraded,
            quarantined,
            truncation,
        }
    }

    /// The corruption guard's response to an unhealthy step by model
    /// `current`: strike it into quarantine, roll `live` back to
    /// `anchor` and hand the run to the nearest available model.
    /// Returns that model, or `None` when every candidate is barred and
    /// the run must degrade to PCG for the rest of the run (terminal —
    /// the exact solver cannot be quarantined).
    fn roll_back(
        &self,
        live: &mut Cursor,
        anchor: &Cursor,
        quarantine: &mut QuarantineTable,
        current: usize,
        events: &mut Vec<SchedulerEvent>,
    ) -> Option<usize> {
        let interval = self.config.check_interval;
        let corrupt_step = live.step;
        let decision = quarantine.strike(current, (corrupt_step / interval) as u64);
        let (strikes, until_interval) = match decision {
            QuarantineDecision::Quarantined { strikes, until_interval } => {
                (strikes, Some(until_interval))
            }
            QuarantineDecision::Ejected { strikes } => (strikes, None),
        };
        let from = &self.candidates[current].name;
        sfn_obs::counter_add("runtime.quarantines", 1);
        sfn_obs::event(Level::Warn, "runtime.quarantine")
            .field_u64("step", corrupt_step as u64)
            .field_str("model", from)
            .field_u64("strikes", u64::from(strikes))
            .field_bool("ejected", until_interval.is_none())
            .emit();
        events.push(SchedulerEvent::Quarantine {
            step: corrupt_step,
            model: from.clone(),
            strikes,
            until_interval,
        });

        // The anchor is a clone of this very run's state, so restoring
        // it cannot fail.
        *live = anchor.clone();
        sfn_obs::counter_add("runtime.rollbacks", 1);

        let step = live.step;
        let rewound = (step / interval) as u64;
        let Some(next) = quarantine.next_available(current, rewound) else {
            let barred = quarantine.unavailable(rewound).len();
            sfn_obs::counter_add("runtime.degraded", 1);
            sfn_obs::event(Level::Error, "runtime.degraded")
                .field_u64("step", step as u64)
                .field_u64("barred", barred as u64)
                .field_str("fallback", "pcg")
                .emit();
            events.push(SchedulerEvent::Degrade { step, barred });
            return None;
        };
        let to = &self.candidates[next].name;
        sfn_obs::counter_add("runtime.recoveries", 1);
        sfn_faults::note_recovery("runtime/rollback");
        sfn_obs::event(Level::Warn, "runtime.rollback")
            .field_u64("from_step", corrupt_step as u64)
            .field_u64("to_step", step as u64)
            .field_str("from", from)
            .field_str("to", to)
            .emit();
        events.push(SchedulerEvent::Rollback {
            step: corrupt_step,
            to_step: step,
            from: from.clone(),
            to: to.clone(),
        });
        Some(next)
    }

    /// The Algorithm 2 check at a healthy check interval (lines 8–16):
    /// predict the final quality loss from `live`'s `CumDivNorm`
    /// history and decide against the band around the requirement.
    /// Records the belief in `predictions` and a switch or restart in
    /// `events`; the caller acts on the returned verdict. Warm-up or a
    /// degenerate history keeps the current model.
    fn check(
        &self,
        live: &Cursor,
        quarantine: &QuarantineTable,
        current: usize,
        predictions: &mut Vec<(usize, f64)>,
        events: &mut Vec<SchedulerEvent>,
    ) -> Action {
        let cfg = &self.config;
        let step = live.step;
        let Some(cdn_pred) = live.tracker.predict_final(cfg.check_interval, cfg.total_steps) else {
            return Action::Keep;
        };
        let predicted_loss = self.knn.predict(cdn_pred);
        predictions.push((step, predicted_loss));

        let hi = cfg.quality_target * (1.0 + cfg.tolerance);
        let lo = cfg.quality_target * (1.0 - cfg.tolerance);
        let interval_now = (step / cfg.check_interval) as u64;
        // Switch targets honour the quarantine table: escalation
        // picks the nearest available model above, relaxation the
        // nearest available below.
        let n_models = self.candidates.len();
        let up = (current + 1..n_models).find(|&m| quarantine.is_available(m, interval_now));
        let down = (0..current).rev().find(|&m| quarantine.is_available(m, interval_now));
        // Decide first, mutate after: the whole Algorithm 2 check is
        // reported as exactly one structured event either way.
        let action = decide(predicted_loss, lo, hi, cfg.use_mlp, up, down);
        sfn_obs::counter_add("scheduler.checks", 1);
        // The decision record carries everything `sfn-trace audit`
        // needs to replay Algorithm 2 offline: the prediction, the
        // band, the candidate neighbourhood and the quarantine
        // state that shaped the switch targets.
        sfn_obs::event(Level::Info, "scheduler.decision")
            .field_u64("step", step as u64)
            .field_str("model", &self.candidates[current].name)
            .field_f64("predicted_loss", predicted_loss)
            .field_f64("cdn_pred", cdn_pred)
            .field_f64("target", cfg.quality_target)
            .field_f64("band_lo", lo)
            .field_f64("band_hi", hi)
            .field_bool("mlp", cfg.use_mlp)
            .field_str("up", up.map_or("none", |m| self.candidates[m].name.as_str()))
            .field_str("down", down.map_or("none", |m| self.candidates[m].name.as_str()))
            .field_u64("barred", quarantine.unavailable(interval_now).len() as u64)
            .field_u64("rank", current as u64)
            .field_u64("candidates", n_models as u64)
            .field_str("action", action.as_str())
            .emit();
        match action {
            // The switch target rides inside the verdict, so a
            // depleted neighbourhood can no longer panic here: it
            // was already folded into Restart/Keep above.
            Action::SwitchUp(to) | Action::SwitchDown(to) => {
                sfn_obs::counter_add("scheduler.switches", 1);
                events.push(SchedulerEvent::Switch {
                    step,
                    from: self.candidates[current].name.clone(),
                    to: self.candidates[to].name.clone(),
                    predicted_loss,
                });
            }
            Action::Restart => {
                sfn_obs::counter_add("scheduler.restarts", 1);
                events.push(SchedulerEvent::Restart { step, predicted_loss });
            }
            Action::Keep => {}
        }
        action
    }
}

/// The state a rollback rewinds: the simulation, its `CumDivNorm`
/// history and the step counter. The rollback anchor and the restart
/// point are clones of it.
#[derive(Clone)]
struct Cursor {
    sim: Simulation,
    tracker: CumDivNormTracker,
    step: usize,
}

/// Finishes `live` on the exact PCG projector — the full Algorithm 2
/// restart (`restarted`) or the degraded tail. A straight loop: no
/// checks, no models, nothing left to quarantine; only `limits` can cut
/// it short. Returns the tail's projection seconds and its truncation.
fn exact_tail(
    live: &mut Cursor,
    restarted: bool,
    limits: RunLimits,
    executed: &mut usize,
    inv_cells: f64,
    total_steps: usize,
) -> (f64, Option<Truncation>) {
    let (span, label) =
        if restarted { ("runtime/restart", "pcg") } else { ("runtime/degraded", "pcg-degraded") };
    let _span = sfn_obs::span!(span);
    if !restarted {
        sfn_faults::note_recovery("runtime/degraded");
    }
    let mut pcg =
        ExactProjector::labelled(PcgSolver::new(MicPreconditioner::default(), 1e-7, 200_000), label);
    let mut secs = 0.0;
    while live.step < total_steps {
        if let Some(t) = limits.shed(live.step, *executed) {
            return (secs, Some(t));
        }
        let s = timed_step(&mut live.sim, &mut pcg, label, live.step + 1, inv_cells, &mut live.tracker);
        secs += s.projection_time.as_secs_f64();
        live.step += 1;
        *executed += 1;
    }
    (secs, None)
}

/// Takes simulation step number `step` (1-based) under `projector`,
/// pushes its cell-normalised `DivNorm` onto `tracker` and the
/// `runtime.div_norm` histogram, and reports it under `model` as one
/// `runtime.step` record (Trace level) — the raw material for
/// `sfn-trace analyze` / `export` and, through the `sfn-metrics`
/// bridge, for the live step series. Timing is only taken when
/// something would record the event.
fn timed_step(
    sim: &mut Simulation,
    projector: &mut dyn PressureProjector,
    model: &str,
    step: usize,
    inv_cells: f64,
    tracker: &mut CumDivNormTracker,
) -> StepStats {
    let t0 = sfn_obs::event_enabled(Level::Trace).then(std::time::Instant::now);
    let stats = sim.step(projector);
    let div_norm = stats.div_norm * inv_cells;
    tracker.push(div_norm);
    sfn_obs::histogram_record("runtime.div_norm", div_norm);
    if let Some(t0) = t0 {
        let secs = t0.elapsed().as_secs_f64();
        sfn_obs::event(Level::Trace, "runtime.step")
            .field_u64("step", step as u64)
            .field_str("model", model)
            .field_f64("secs", secs)
            .field_f64("proj_secs", stats.projection_time.as_secs_f64())
            .field_f64("div_norm", div_norm)
            .emit();
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_grid::CellFlags;
    use sfn_nn::Network;
    use sfn_sim::SimConfig;
    use sfn_surrogate::{tompson_spec, yang_spec};

    fn candidate(name: &str, spec: &sfn_nn::NetworkSpec, seed: u64, prob: f64, q: f64, t: f64) -> CandidateModel {
        let mut net = Network::from_spec(spec, seed).unwrap();
        CandidateModel {
            name: name.into(),
            saved: net.save(),
            probability: prob,
            exec_time: t,
            quality_loss: q,
        }
    }

    fn broken_candidate(name: &str, prob: f64, q: f64) -> CandidateModel {
        // NaN weights: the surrogate corrupts the state on its first step.
        let mut net = Network::from_spec(&yang_spec(2), 1).unwrap();
        for view in net.params() {
            view.values.fill(f32::NAN);
        }
        CandidateModel {
            name: name.into(),
            saved: net.save(),
            probability: prob,
            exec_time: 0.1,
            quality_loss: q,
        }
    }

    fn knn() -> KnnDatabase {
        // A plausible monotone CumDivNorm -> Qloss mapping.
        KnnDatabase::new((0..64).map(|i| (i as f64 * 10.0, i as f64 * 0.001)).collect()).unwrap()
    }

    fn simulation(n: usize) -> Simulation {
        Simulation::new(SimConfig::plume(n), CellFlags::smoke_box(n, n))
    }

    #[test]
    fn decide_covers_the_six_outcomes_of_algorithm_2() {
        // Band [0.9, 1.1]; candidate 2 above, candidate 0 below.
        let (lo, hi) = (0.9, 1.1);
        let table = [
            // (predicted, use_mlp, up, down, verdict)
            (1.2, true, Some(2), Some(0), Action::SwitchUp(2)),
            (1.2, true, None, Some(0), Action::Restart),
            (0.5, true, Some(2), Some(0), Action::SwitchDown(0)),
            (0.5, true, Some(2), None, Action::Keep),
            (0.5, false, Some(2), Some(0), Action::Keep),
            (1.0, true, Some(2), Some(0), Action::Keep),
        ];
        for (predicted, use_mlp, up, down, want) in table {
            assert_eq!(decide(predicted, lo, hi, use_mlp, up, down), want, "{predicted} mlp={use_mlp}");
        }
        // The band edges themselves are inside the band.
        assert_eq!(decide(hi, lo, hi, true, Some(2), Some(0)), Action::Keep);
        assert_eq!(decide(lo, lo, hi, true, Some(2), Some(0)), Action::Keep);
    }

    #[test]
    fn starts_with_highest_probability_model() {
        let c = vec![
            candidate("fast", &yang_spec(2), 1, 0.6, 0.05, 0.1),
            candidate("mid", &yang_spec(4), 2, 0.9, 0.03, 0.2),
            candidate("slow", &tompson_spec(8), 3, 0.7, 0.01, 0.4),
        ];
        let rt = SmartRuntime::new(c, knn(), RuntimeConfig::default());
        // Accuracy order: fast(0.05), mid(0.03), slow(0.01).
        assert_eq!(rt.candidates()[rt.start_index()].name, "mid");
    }

    #[test]
    fn no_mlp_starts_with_fastest() {
        let c = vec![
            candidate("fast", &yang_spec(2), 1, 0.6, 0.05, 0.1),
            candidate("slow", &tompson_spec(8), 3, 0.9, 0.01, 0.4),
        ];
        let rt = SmartRuntime::new(
            c,
            knn(),
            RuntimeConfig {
                use_mlp: false,
                ..Default::default()
            },
        );
        assert_eq!(rt.candidates()[rt.start_index()].name, "fast");
    }

    #[test]
    fn unloadable_candidate_is_demoted_not_fatal() {
        let mut bad = candidate("bad", &yang_spec(2), 1, 0.9, 0.05, 0.1);
        bad.saved.weights.pop(); // truncate the snapshot
        let good = candidate("good", &yang_spec(4), 2, 0.5, 0.02, 0.2);
        let rt = SmartRuntime::try_new(vec![bad, good], knn(), RuntimeConfig::default())
            .expect("one loadable candidate is enough");
        assert_eq!(rt.candidates().len(), 1);
        assert_eq!(rt.candidates()[0].name, "good");
    }

    #[test]
    fn all_candidates_unloadable_is_a_typed_error() {
        let mut bad = candidate("bad", &yang_spec(2), 1, 0.9, 0.05, 0.1);
        bad.saved.weights.clear();
        match SmartRuntime::try_new(vec![bad], knn(), RuntimeConfig::default()) {
            Err(RuntimeError::NoUsableCandidates { rejected }) => {
                assert_eq!(rejected.len(), 1);
                assert_eq!(rejected[0].0, "bad");
            }
            other => panic!("expected NoUsableCandidates, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn tiny_check_interval_is_rejected() {
        let c = vec![candidate("a", &yang_spec(2), 1, 0.8, 0.05, 0.1)];
        let cfg = RuntimeConfig { check_interval: 2, ..Default::default() };
        assert!(matches!(
            SmartRuntime::try_new(c, knn(), cfg),
            Err(RuntimeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn run_completes_and_accounts_time() {
        let c = vec![
            candidate("a", &yang_spec(2), 1, 0.8, 0.05, 0.1),
            candidate("b", &yang_spec(4), 2, 0.7, 0.02, 0.2),
        ];
        let mut rt = SmartRuntime::new(
            c,
            knn(),
            RuntimeConfig {
                total_steps: 20,
                quality_target: 1.0, // always satisfied -> no restart
                ..Default::default()
            },
        );
        let out = rt.run(simulation(16));
        assert!(!out.restarted);
        assert!(!out.degraded);
        assert_eq!(out.rollbacks, 0);
        assert!(out.quarantined.is_empty());
        assert_eq!(out.steps_per_model.iter().sum::<usize>(), 20);
        assert!(out.time_per_model.iter().sum::<f64>() > 0.0);
        assert_eq!(out.cum_div_norm.len(), 20);
        assert!(out.density.all_finite());
        // The first check interval (step 5) is still inside the tracker
        // warm-up: predict_final returns None and the scheduler keeps
        // the current model without recording a belief.
        assert_eq!(out.predictions.first().map(|p| p.0), Some(10));
    }

    #[test]
    fn impossible_target_restarts_with_pcg() {
        let c = vec![
            candidate("a", &yang_spec(2), 1, 0.8, 0.05, 0.1),
            candidate("b", &yang_spec(4), 2, 0.7, 0.02, 0.2),
        ];
        let mut rt = SmartRuntime::new(
            c,
            knn(),
            RuntimeConfig {
                total_steps: 30,
                quality_target: 1e-9, // untrained nets can never meet this
                ..Default::default()
            },
        );
        let out = rt.run(simulation(16));
        assert!(out.restarted, "events: {:?}", out.events);
        assert!(matches!(out.events.last(), Some(SchedulerEvent::Restart { .. })));
        // The PCG fallback still produces a full, healthy run.
        assert!(out.density.all_finite());
        assert_eq!(out.cum_div_norm.len(), 30);
        // PCG keeps DivNorm tiny.
        assert!(*out.cum_div_norm.last().unwrap() < 1e-4);
    }

    #[test]
    fn escalates_through_models_before_restarting() {
        let c = vec![
            candidate("m0", &yang_spec(2), 1, 0.9, 0.05, 0.1),
            candidate("m1", &yang_spec(3), 2, 0.8, 0.03, 0.2),
            candidate("m2", &yang_spec(4), 3, 0.7, 0.01, 0.3),
        ];
        let mut rt = SmartRuntime::new(
            c,
            knn(),
            RuntimeConfig {
                total_steps: 40,
                quality_target: 1e-9,
                use_mlp: false, // start from the fastest
                ..Default::default()
            },
        );
        let out = rt.run(simulation(16));
        let switches: Vec<(&String, &String)> = out
            .events
            .iter()
            .filter_map(|e| match e {
                SchedulerEvent::Switch { from, to, .. } => Some((from, to)),
                _ => None,
            })
            .collect();
        assert_eq!(switches.len(), 2, "events: {:?}", out.events);
        assert_eq!(switches[0].0, "m0");
        assert_eq!(switches[1].1, "m2");
        assert!(out.restarted);
    }

    #[test]
    fn static_policy_never_switches() {
        let c = vec![
            candidate("a", &yang_spec(2), 1, 0.8, 0.05, 0.1),
            candidate("b", &yang_spec(4), 2, 0.7, 0.02, 0.2),
        ];
        let mut rt = SmartRuntime::new(
            c,
            knn(),
            RuntimeConfig {
                total_steps: 20,
                quality_target: 1e-9, // would force switches when adaptive
                adaptive: false,
                ..Default::default()
            },
        );
        let out = rt.run(simulation(16));
        assert!(out.events.is_empty(), "static policy produced {:?}", out.events);
        assert!(!out.restarted);
        // Only the starting model ran.
        assert_eq!(out.steps_per_model.iter().filter(|&&s| s > 0).count(), 1);
    }

    #[test]
    fn corrupting_model_rolls_back_and_switches() {
        // The high-probability candidate corrupts the state on its first
        // step; the runtime must strike it, roll back and finish the run
        // on the healthy candidate — no restart, no degradation.
        let c = vec![
            broken_candidate("broken", 0.9, 0.05),
            candidate("healthy", &yang_spec(4), 2, 0.5, 0.02, 0.2),
        ];
        let mut rt = SmartRuntime::new(
            c,
            knn(),
            RuntimeConfig {
                total_steps: 20,
                quality_target: 1.0, // quality never forces an escalation
                use_mlp: false,      // ...nor a relaxation back to `broken`
                ..Default::default()
            },
        );
        let out = rt.run(simulation(16));
        assert!(!out.restarted && !out.degraded, "events: {:?}", out.events);
        assert_eq!(out.rollbacks, 1);
        assert_eq!(out.quarantined, vec![("broken".to_string(), 1)]);
        assert!(matches!(out.events[0], SchedulerEvent::Quarantine { ref model, strikes: 1, .. } if model == "broken"));
        assert!(matches!(out.events[1], SchedulerEvent::Rollback { to_step: 0, .. }));
        assert!(out.density.all_finite());
        assert_eq!(out.cum_div_norm.len(), 20);
        // The healthy model carried the whole surviving run.
        let healthy = out.model_names.iter().position(|n| n == "healthy").unwrap();
        assert_eq!(out.steps_per_model[healthy], 20);
    }

    #[test]
    fn rollback_and_degradation_count_as_recoveries() {
        // No test in this crate installs a fault plan (which resets the
        // count), so the process-wide tally only grows.
        let rolled_back = sfn_faults::recovered_count();
        let c = vec![
            broken_candidate("broken", 0.9, 0.05),
            candidate("healthy", &yang_spec(4), 2, 0.5, 0.02, 0.2),
        ];
        let cfg = RuntimeConfig {
            total_steps: 10,
            quality_target: 1.0,
            use_mlp: false,
            ..Default::default()
        };
        let out = SmartRuntime::new(c, knn(), cfg).run(simulation(16));
        assert_eq!((out.rollbacks, out.degraded), (1, false));
        assert!(
            sfn_faults::recovered_count() > rolled_back,
            "a rollback to a healthy model is a recovery"
        );

        let degraded = sfn_faults::recovered_count();
        let c = vec![broken_candidate("broken", 0.9, 0.02)];
        let out = SmartRuntime::new(c, knn(), cfg).run(simulation(16));
        assert!(out.degraded);
        assert!(
            sfn_faults::recovered_count() > degraded,
            "finishing on PCG is a recovery"
        );
    }

    #[test]
    fn single_candidate_band_exits_never_panic() {
        // Regression: acting on a band exit used to `unwrap()` the
        // switch target, so a roster with no neighbour in the switch
        // direction was a latent panic. Drive both exits over a
        // one-model roster: the upward exit must fold into a restart
        // and the downward one into a keep.
        let c = vec![candidate("only", &yang_spec(2), 1, 0.8, 0.05, 0.1)];
        let mut rt = SmartRuntime::new(
            c.clone(),
            knn(),
            RuntimeConfig {
                total_steps: 30,
                quality_target: 1e-9, // always above the band: wants up
                ..Default::default()
            },
        );
        let out = rt.run(simulation(16));
        assert!(out.restarted, "no up-neighbour must restart: {:?}", out.events);

        let mut rt = SmartRuntime::new(
            c,
            knn(),
            RuntimeConfig {
                total_steps: 30,
                quality_target: 1e9, // always below the band: wants down
                use_mlp: true,
                ..Default::default()
            },
        );
        let out = rt.run(simulation(16));
        assert!(!out.restarted && out.events.is_empty(), "no down-neighbour must keep");
        assert_eq!(out.cum_div_norm.len(), 30);
    }

    #[test]
    fn expired_deadline_sheds_immediately_with_valid_state() {
        let c = vec![candidate("a", &yang_spec(2), 1, 0.8, 0.05, 0.1)];
        let mut rt = SmartRuntime::new(
            c,
            knn(),
            RuntimeConfig { total_steps: 20, quality_target: 1.0, ..Default::default() },
        );
        let limits = RunLimits {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            max_steps: None,
        };
        let out = rt.run_bounded(simulation(16), limits);
        assert_eq!(out.truncation, Some(Truncation::DeadlineExpired { step: 0 }));
        assert!(out.cum_div_norm.is_empty());
        assert!(out.density.all_finite(), "a shed run still returns renderable state");
    }

    #[test]
    fn step_budget_truncates_at_the_boundary() {
        let c = vec![candidate("a", &yang_spec(2), 1, 0.8, 0.05, 0.1)];
        let mut rt = SmartRuntime::new(
            c,
            knn(),
            RuntimeConfig { total_steps: 20, quality_target: 1.0, ..Default::default() },
        );
        let limits = RunLimits { deadline: None, max_steps: Some(7) };
        let out = rt.run_bounded(simulation(16), limits);
        assert_eq!(out.truncation, Some(Truncation::StepBudget { step: 7 }));
        assert_eq!(out.cum_div_norm.len(), 7);
        assert_eq!(out.steps_per_model.iter().sum::<usize>(), 7);
        assert!(out.density.all_finite());
    }

    #[test]
    fn all_models_corrupt_degrades_to_pcg() {
        // Every candidate corrupts: the runtime must quarantine them all
        // and finish the run on the exact solver — never panic, never
        // loop forever.
        let c = vec![broken_candidate("broken", 0.9, 0.02)];
        let mut rt = SmartRuntime::new(
            c,
            knn(),
            RuntimeConfig {
                total_steps: 12,
                quality_target: 0.05,
                ..Default::default()
            },
        );
        let out = rt.run(simulation(16));
        assert!(out.degraded, "events: {:?}", out.events);
        assert!(!out.restarted);
        assert!(matches!(out.events.last(), Some(SchedulerEvent::Degrade { barred: 1, .. })));
        assert_eq!(out.quarantined, vec![("broken".to_string(), 1)]);
        assert!(out.density.all_finite(), "PCG tail must produce a clean frame");
        assert_eq!(out.cum_div_norm.len(), 12, "degraded tail completes the run");
        // PCG keeps the tail's DivNorm tiny.
        assert!(out.cum_div_norm.last().unwrap().is_finite());
    }
}
