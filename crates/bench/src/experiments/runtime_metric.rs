//! Figure 6: DivNorm, CumDivNorm and Q_loss^ts across time steps, plus
//! the §6.1 Pearson/Spearman correlation between CumDivNorm and
//! Q_loss^ts (paper: r_p = 0.61, r_s = 0.79).

use crate::env::BenchEnv;
use sfn_sim::quality_loss;
use sfn_stats::{pearson, spearman, TextTable};
use sfn_surrogate::NeuralProjector;
use sfn_workload::{reference_projector, ProblemSet};

/// One problem's per-step trace.
pub struct Trace {
    /// Per-step DivNorm of the surrogate run.
    pub div_norm: Vec<f64>,
    /// Running CumDivNorm.
    pub cum_div_norm: Vec<f64>,
    /// Per-step quality loss against the lock-stepped PCG reference.
    pub qloss_ts: Vec<f64>,
}

/// Runs the base Tompson model and a PCG reference in lock-step,
/// recording the three Figure 6 series.
pub fn trace_problem(env: &BenchEnv, problem_idx: usize, steps: usize) -> Trace {
    let problem =
        ProblemSet::evaluation(env.offline.eval_grid, problem_idx + 1).problem(problem_idx);
    let art = env.framework.artifacts();
    let base = &art.measurements[art.base_index].saved;
    let mut nn = NeuralProjector::try_from_saved(base, "tompson").expect("base loads");
    let mut pcg = reference_projector();

    let mut nn_sim = problem.simulation();
    let mut ref_sim = problem.simulation();
    let mut div_norm = Vec::with_capacity(steps);
    let mut cum_div_norm = Vec::with_capacity(steps);
    let mut qloss_ts = Vec::with_capacity(steps);
    let mut cum = 0.0;
    for _ in 0..steps {
        let s = nn_sim.step(&mut nn);
        ref_sim.step(&mut pcg);
        cum += s.div_norm;
        div_norm.push(s.div_norm);
        cum_div_norm.push(cum);
        qloss_ts.push(quality_loss(nn_sim.density(), ref_sim.density()));
    }
    Trace {
        div_norm,
        cum_div_norm,
        qloss_ts,
    }
}

/// The Figure 6 correlation: pooled (CumDivNorm, Q_loss^ts) pairs over
/// `count` problems × all steps.
pub fn correlations(env: &BenchEnv, count: usize, steps: usize) -> (f64, f64, usize) {
    let traces: Vec<Trace> = sfn_par::map_range(count, |i| trace_problem(env, i, steps));
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for t in &traces {
        // Skip the warm-up steps, as the paper's observation 2 does
        // ("similar increasing tendency (except the first few steps)").
        for k in 5..t.cum_div_norm.len() {
            xs.push(t.cum_div_norm[k]);
            ys.push(t.qloss_ts[k]);
        }
    }
    let rp = pearson(&xs, &ys).unwrap_or(f64::NAN);
    let rs = spearman(&xs, &ys).unwrap_or(f64::NAN);
    (rp, rs, xs.len())
}

impl Trace {
    /// Renders the three series as a step table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["step", "DivNorm", "CumDivNorm", "Qloss_ts"]);
        for i in 0..self.div_norm.len() {
            t.row([
                format!("{i}"),
                format!("{:.4}", self.div_norm[i]),
                format!("{:.3}", self.cum_div_norm[i]),
                format!("{:.5}", self.qloss_ts[i]),
            ]);
        }
        t.render()
    }
}
