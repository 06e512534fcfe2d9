//! Figures 10/11 (per-candidate speedup and quality) and Table 3
//! (runtime time distribution over the selected models).

use crate::env::BenchEnv;
use crate::runs::{Method, RunRecord};
use sfn_stats::{BoxplotSummary, TextTable};

/// Results of running every Pareto candidate solo plus Smart-fluidnet.
#[derive(Debug, Clone)]
pub struct CandidateRuns {
    /// Candidate names (M-ids), fastest first.
    pub names: Vec<String>,
    /// Per-candidate per-problem records.
    pub per_candidate: Vec<Vec<RunRecord>>,
    /// Fixed Tompson (base) runs.
    pub tompson: Vec<RunRecord>,
    /// Smart-fluidnet adaptive runs, each with its per-model split.
    pub smart: Vec<RunRecord>,
    /// PCG projection seconds per problem.
    pub pcg_secs: Vec<f64>,
    /// MLP probability per *selected* runtime model (name, prob).
    pub selected_probabilities: Vec<(String, f64)>,
}

/// Queries the candidate comparison at the evaluation grid.
pub fn candidate_runs(env: &BenchEnv) -> CandidateRuns {
    let art = env.framework.artifacts();
    let grid = env.offline.eval_grid;
    let count = env.problems_per_grid.max(4);
    let candidates = art.candidates();
    CandidateRuns {
        names: candidates.iter().map(|m| m.name.clone()).collect(),
        per_candidate: candidates
            .iter()
            .map(|m| env.runs(&Method::Fixed { name: &m.name, model: &m.saved }, grid, count))
            .collect(),
        tompson: env.runs(&env.tompson(), grid, count),
        smart: env.runs(&Method::Smart(env.smart()), grid, count),
        pcg_secs: env.runs(&Method::Pcg, grid, count).iter().map(|r| r.secs).collect(),
        selected_probabilities: art
            .selected
            .iter()
            .map(|c| (c.name.clone(), c.probability))
            .collect(),
    }
}

impl CandidateRuns {
    /// Figure 10: speedup over PCG for each candidate run solo, plus
    /// Smart-fluidnet.
    pub fn render_figure10(&self) -> String {
        let pcg: f64 = self.pcg_secs.iter().sum();
        let mut t = TextTable::new(["Model", "Speedup vs PCG"]);
        for (name, runs) in self.names.iter().zip(&self.per_candidate) {
            let secs: f64 = runs.iter().map(|r| r.secs).sum();
            t.row([name.clone(), format!("{:.1}x", pcg / secs.max(1e-12))]);
        }
        let smart_secs: f64 = self.smart.iter().map(|r| r.secs).sum();
        t.row([
            "Smart".to_string(),
            format!("{:.1}x", pcg / smart_secs.max(1e-12)),
        ]);
        format!(
            "{}\n(paper: candidates span 141x-541x; Smart lands near the median, 440x)",
            t.render()
        )
    }

    /// Figure 11: quality-loss box-plots per candidate, Tompson and
    /// Smart.
    pub fn render_figure11(&self) -> String {
        let mut out = String::new();
        let render = |label: &str, runs: &[RunRecord]| -> String {
            let q: Vec<f64> = runs.iter().map(|r| r.qloss).collect();
            match BoxplotSummary::from_data(&q) {
                Some(b) => format!("  {label:<8} {}\n", b.render()),
                None => format!("  {label:<8} (no data)\n"),
            }
        };
        out.push_str(&render("Tompson", &self.tompson));
        for (name, runs) in self.names.iter().zip(&self.per_candidate) {
            out.push_str(&render(name, runs));
        }
        out.push_str(&render("Smart", &self.smart));
        out.push_str(
            "(paper: Smart-fluidnet's variation is much smaller than any \
             single candidate's)",
        );
        out
    }

    /// Table 3: the time distribution over the runtime's selected
    /// models, aggregated across problems, with their MLP
    /// probabilities.
    pub fn render_table3(&self) -> String {
        // Aggregate seconds and steps per model name across problems.
        let mut total: std::collections::BTreeMap<&str, (f64, usize)> = Default::default();
        let (mut secs, mut steps) = (0.0, 0);
        for run in &self.smart {
            for ((n, &s), &k) in run.models.iter().zip(&run.model_secs).zip(&run.model_steps) {
                let entry = total.entry(n).or_default();
                entry.0 += s;
                entry.1 += k;
                secs += s;
                steps += k;
            }
        }
        let prob: std::collections::BTreeMap<&str, f64> = self
            .selected_probabilities
            .iter()
            .map(|(n, p)| (n.as_str(), *p))
            .collect();
        let mut rows: Vec<(&str, f64, f64, f64)> = total
            .into_iter()
            .map(|(n, (s, k))| {
                let p = prob.get(n).copied().unwrap_or(f64::NAN);
                (n, p, 100.0 * s / secs.max(1e-12), 100.0 * k as f64 / steps.max(1) as f64)
            })
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut t = TextTable::new(["Model", "Prob. (MLP)", "Time share", "Step share"]);
        for (n, p, time, step) in rows {
            t.row([
                n.to_string(),
                format!("{:.1}%", p * 100.0),
                format!("{time:.1}%"),
                format!("{step:.1}%"),
            ]);
        }
        format!(
            "{}\n(paper Table 3: the highest-probability model takes the \
             largest share, 50.56%)",
            t.render()
        )
    }
}
