//! Table 1 (solver comparison) and Figure 1 (quality-loss
//! distribution of the Tompson model).

use crate::env::BenchEnv;
use crate::runs::Method;
use sfn_nn::network::SavedModel;
use sfn_stats::{Histogram, Summary, TextTable};
use sfn_surrogate::{train_projection_model, yang_default, ProjectionDataset, TrainConfig};
use sfn_workload::ProblemSet;
use smart_fluidnet_core::{OfflineArtifacts, OfflineConfig};

/// Table 1 rows: per-method mean projection seconds and quality loss.
pub struct Table1 {
    /// `(method, mean seconds, mean quality loss or None for PCG)`.
    pub rows: Vec<(String, f64, Option<f64>)>,
}

/// Runs Table 1: PCG vs the Tompson-style base model vs the
/// Yang-style baseline, over the standard evaluation problems.
pub fn table1(env: &BenchEnv) -> Table1 {
    let yang = yang_baseline(&env.offline);
    let means = |method: Method| -> (f64, f64) {
        let recs = env.runs(&method, env.offline.eval_grid, env.offline.eval_problems);
        let n = recs.len() as f64;
        (
            recs.iter().map(|r| r.secs).sum::<f64>() / n,
            recs.iter().map(|r| r.qloss).sum::<f64>() / n,
        )
    };
    let (pcg_secs, _) = means(Method::Pcg);
    let (t_secs, t_q) = means(env.tompson());
    let (y_secs, y_q) = means(Method::Fixed { name: "yang", model: &yang });

    Table1 {
        rows: vec![
            ("PCG".into(), pcg_secs, None),
            ("Tompson".into(), t_secs, Some(t_q)),
            ("Yang".into(), y_secs, Some(y_q)),
        ],
    }
}

impl Table1 {
    /// Renders with the paper's numbers alongside.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "Method",
            "Exec time (s, ours)",
            "Avg quality loss (ours)",
            "Paper exec (ms)",
            "Paper qloss",
        ]);
        let paper = [
            ("PCG", "2.34e8", "--"),
            ("Tompson", "7.19e4", "1.3e-2"),
            ("Yang", "3.20e4", "4.9e-2"),
        ];
        for ((name, secs, q), (pn, pt, pq)) in self.rows.iter().zip(paper) {
            assert_eq!(name, pn);
            t.row([
                name.clone(),
                format!("{secs:.4}"),
                q.map(|v| format!("{v:.4}")).unwrap_or_else(|| "--".into()),
                pt.to_string(),
                pq.to_string(),
            ]);
        }
        t.render()
    }
}

/// Figure 1: the distribution of the Tompson model's quality loss over
/// the input problems, as an 18-bin histogram (plus the §2.3 headline:
/// the fraction of problems missing the 0.01-style requirement).
pub struct Figure1 {
    /// The histogram over quality losses.
    pub histogram: Histogram,
    /// Raw per-problem losses.
    pub losses: Vec<f64>,
    /// Mean loss (the requirement used throughout §7).
    pub mean: f64,
}

/// Runs Figure 1 over `problems_per_grid × |grids|`-ish problems at the
/// evaluation grid (more problems = smoother histogram; scale with
/// `SFN_EVAL_PROBLEMS`).
pub fn figure1(env: &BenchEnv) -> Figure1 {
    let count = env.offline.eval_problems.max(8);
    let losses: Vec<f64> = env
        .runs(&env.tompson(), env.offline.eval_grid, count)
        .iter()
        .map(|r| r.qloss)
        .collect();
    let max = losses.iter().cloned().fold(0.0f64, f64::max).max(1e-9);
    let mut histogram = Histogram::new(0.0, max * 1.001, 18);
    histogram.extend(losses.iter().copied());
    let mean = Summary::from_data(&losses).map(|s| s.mean).unwrap_or(0.0);
    Figure1 {
        histogram,
        losses,
        mean,
    }
}

impl Figure1 {
    /// Renders the histogram rows (bin centre, proportion) plus the
    /// §2.3-style unsatisfied fraction at the mean requirement.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["Qloss bin centre", "Proportion of inputs"]);
        let props = self.histogram.proportions();
        for (i, p) in props.iter().enumerate() {
            t.row([
                format!("{:.4}", self.histogram.bin_center(i)),
                format!("{:.1}%", p * 100.0),
            ]);
        }
        let below = self.histogram.fraction_below(self.mean);
        format!(
            "{}\nmean quality loss (the derived requirement): {:.4}\n\
             inputs that CANNOT meet q = mean: {:.1}%  (paper, q = 0.01: 65.42%)",
            t.render(),
            self.mean,
            (1.0 - below) * 100.0
        )
    }
}

/// Trains (and caches) the Yang-style baseline on the same dataset the
/// pipeline used, for Table 1.
fn yang_baseline(cfg: &OfflineConfig) -> SavedModel {
    let path = OfflineArtifacts::cache_path(&format!("yang-{}", cfg.cache_key()));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(saved) = sfn_obs::json::from_json_str::<SavedModel>(&text) {
            return saved;
        }
    }
    let set = ProblemSet::training(cfg.train_grid, cfg.train_problems);
    let dataset = ProjectionDataset::generate(&set, cfg.train_steps, cfg.capture_every);
    let (mut net, _) = train_projection_model(
        &yang_default(),
        &dataset,
        &TrainConfig {
            epochs: cfg.train_epochs,
            learning_rate: cfg.learning_rate,
            seed: cfg.seed ^ 0xFA46,
            ..Default::default()
        },
    );
    let saved = net.save();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).ok();
    }
    if let Err(e) = std::fs::write(&path, sfn_obs::json::to_json_string(&saved)) {
        OfflineArtifacts::write_failed(&path, &e);
    }
    saved
}
