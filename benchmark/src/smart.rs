//! `smart_64`: one whole adaptive run per operation — build the
//! Algorithm 2 runtime over the pinned roster, then 32 steps at 64²
//! under it. The paper's contribution: scheduling, model switching, the
//! per-run roster decode and the occasional PCG restart, on a grid small
//! enough that a thread fan-out costs about what a kernel does.

use crate::driver::{Check, PassOut, Values, Workload};
use crate::fixture;
use crate::step::quality_check;
use crate::trace::{spanned, Tracer};
use crate::util::{checksum, derive_seed, median, ms_since};
use sfn_runtime::{RunOutcome, RuntimeConfig, SchedulerEvent};
use sfn_surrogate::NeuralProjector;
use sfn_workload::{InputProblem, ProblemSet};
use smart_fluidnet_core::SmartFluidnet;
use std::cell::RefCell;
use std::time::Instant;

const GRID: usize = 64;
const STEPS: usize = 32;
/// Runs per second of `--seconds` on the calibration machine (README).
const RUNS_PER_S: f64 = 10.0;
/// Runs whose final density is compared with the PCG reference.
const QUALITY_PROBLEMS: usize = 8;
/// Mean Eq. 3 loss on those runs when the workload was calibrated: the
/// largest of ten seeds, which gave 0.029 to 0.058 (README). A restarted
/// run is the reference itself and scores 0, so the mean moves with the
/// share of restarts among the eight.
const QLOSS_CALIBRATED: f64 = 0.058;

pub struct Smart64 {
    framework: SmartFluidnet,
    config: RuntimeConfig,
    problems: Vec<InputProblem>,
    setup_layers: Values,
    /// Wall time of a step at this grid outside its projection.
    non_projection_step_ms: f64,
}

impl Smart64 {
    fn run_one(
        &self,
        problem: &InputProblem,
        op: u64,
        tracer: Option<&RefCell<Tracer>>,
    ) -> Result<RunOutcome, String> {
        let mut runtime = spanned(tracer, "core.try_runtime_with", op, || {
            self.framework.try_runtime_with(self.config)
        })
        .map_err(|e| e.to_string())?;
        let sim = spanned(tracer, "workload.simulation", op, || problem.simulation());
        Ok(spanned(tracer, "runtime.run", op, || runtime.run(sim)))
    }
}

fn sound(out: &RunOutcome) -> bool {
    out.density.all_finite()
        && !out.degraded
        && out.truncation.is_none()
        && out.cum_div_norm.len() == STEPS
}

impl Workload for Smart64 {
    fn setup(seed: u64, seconds: f64) -> Result<Self, String> {
        let f = fixture::load().map_err(|e| e.to_string())?;
        let config = RuntimeConfig {
            total_steps: STEPS,
            quality_target: f.artifacts.requirement.0,
            ..RuntimeConfig::default()
        };
        let t = Instant::now();
        for c in &f.artifacts.selected {
            NeuralProjector::try_from_saved(&c.saved, c.name.clone()).map_err(|e| e.to_string())?;
        }
        let model_load_ms = ms_since(t) / f.artifacts.selected.len() as f64;

        let count = ((seconds * RUNS_PER_S).round() as usize).max(1);
        let set = ProblemSet {
            base_seed: derive_seed(seed, "problems"),
            ..ProblemSet::evaluation(GRID, count)
        };
        let t = Instant::now();
        let problems: Vec<InputProblem> = set.iter().collect();
        let setup_layers = vec![
            ("core.artifact_load_ms", f.load_ms),
            ("core.artifact_bytes", f.bytes as f64),
            ("nn.model_load_ms", model_load_ms),
            ("workload.problem_gen_ms", ms_since(t) / count as f64),
        ];

        // Warm-up, on the roster's first model: also measures what a
        // step costs outside its projection, which the traced pass needs
        // to split a run it cannot see into.
        let first = &f.artifacts.selected[0];
        let mut projector = NeuralProjector::try_from_saved(&first.saved, first.name.clone())
            .map_err(|e| e.to_string())?;
        let mut sim = problems[0].simulation();
        let non_projection_step_ms = median(
            &(0..STEPS)
                .map(|_| {
                    let t = Instant::now();
                    let stats = sim.step(&mut projector);
                    ms_since(t) - stats.projection_time.as_secs_f64() * 1e3
                })
                .collect::<Vec<_>>(),
        );

        let w = Self {
            framework: SmartFluidnet::from_artifacts(f.artifacts),
            config,
            problems,
            setup_layers,
            non_projection_step_ms,
        };
        // The first operation is warm-up and not timed.
        w.run_one(&w.problems[0], 0, None)?;
        Ok(w)
    }

    fn pass(&self, tracer: Option<&RefCell<Tracer>>) -> PassOut {
        let mut out = PassOut::default();
        let mut runs: Vec<RunOutcome> = Vec::new();
        for (i, problem) in self.problems.iter().enumerate() {
            let op = i as u64;
            let t = Instant::now();
            let run = spanned(tracer, "op", op, || self.run_one(problem, op, tracer));
            out.op_ms.push(ms_since(t));
            match run {
                Ok(run) => {
                    out.failed += u64::from(!sound(&run));
                    out.digest.push(checksum(run.density.data()));
                    if i < QUALITY_PROBLEMS {
                        out.outputs.push(run.density.data().to_vec());
                    }
                    if tracer.is_some() {
                        runs.push(run);
                    }
                }
                Err(_) => out.failed += 1,
            }
        }

        if let Some(tr) = tracer {
            let tr = tr.borrow();
            let n = runs.len().max(1) as f64;
            let per_op = |f: &dyn Fn(&RunOutcome) -> f64| runs.iter().map(f).sum::<f64>() / n;
            // A restart abandons the network steps and runs every step
            // again under PCG.
            let executed = |r: &RunOutcome| {
                (r.steps_per_model.iter().sum::<usize>() + if r.restarted { STEPS } else { 0 })
                    as f64
            };
            let run_ms = crate::trace::mean_ms(tr.spans(), "runtime.run");
            let nn_ms = per_op(&|r| r.time_per_model.iter().sum::<f64>() * 1e3);
            let restart_ms = per_op(&|r| r.restart_time * 1e3);
            let executed_steps = per_op(&executed);
            out.layers = vec![
                (
                    "runtime.setup_ms",
                    crate::trace::mean_ms(tr.spans(), "core.try_runtime_with"),
                ),
                ("runtime.run_ms", run_ms),
                ("runtime.nn_proj_ms_per_op", nn_ms),
                ("runtime.restart_ms_per_op", restart_ms),
                (
                    "runtime.overhead_ms_per_op",
                    run_ms - nn_ms - restart_ms - executed_steps * self.non_projection_step_ms,
                ),
                (
                    "runtime.switches_per_op",
                    per_op(&|r| {
                        r.events
                            .iter()
                            .filter(|e| matches!(e, SchedulerEvent::Switch { .. }))
                            .count() as f64
                    }),
                ),
                (
                    "runtime.restart_rate",
                    per_op(&|r| f64::from(u8::from(r.restarted))),
                ),
                (
                    "runtime.rollbacks",
                    runs.iter().map(|r| r.rollbacks).sum::<usize>() as f64,
                ),
                (
                    "runtime.wasted_step_ratio",
                    1.0 - STEPS as f64 / executed_steps,
                ),
            ];
        }
        out
    }

    fn check(&self, out: &PassOut) -> Check {
        quality_check(
            out,
            &self.problems,
            STEPS,
            QLOSS_CALIBRATED,
            self.config.quality_target,
        )
    }

    fn setup_layers(&self) -> Values {
        self.setup_layers.clone()
    }

    fn describe(&self) -> Vec<String> {
        vec![format!(
            "{} problems at {GRID}x{GRID}; one op = try_runtime_with + one SmartRuntime::run of {STEPS} steps, Algorithm 2 on, q {:.5}, roster {:?}",
            self.problems.len(),
            self.config.quality_target,
            self.framework.artifacts().selected.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
        )]
    }
}
