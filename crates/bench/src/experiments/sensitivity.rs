//! Figure 13 (check-interval sensitivity) and the §4 sensitivity-study
//! ablations (layers pruned, pooling fraction, dropout rate).

use crate::env::BenchEnv;
use crate::runs::{success_rate, Method, RunRecord};
use sfn_modelgen::transform::{dropout, narrow, pooling, shallow};
use sfn_modelgen::EvalContext;
use sfn_nn::Network;
use sfn_runtime::RuntimeConfig;
use sfn_stats::TextTable;
use sfn_surrogate::{damp_output_layer, tompson_default, train_network, ProjectionDataset, TrainConfig};
use sfn_workload::ProblemSet;

/// The adaptive runs under `cfg` on the shared evaluation problems.
fn smart_runs(env: &BenchEnv, cfg: RuntimeConfig) -> Vec<RunRecord> {
    env.runs(&Method::Smart(cfg), env.offline.eval_grid, env.problems_per_grid.max(4))
}

/// Figure 13: adaptive success rate as a function of the check
/// interval.
pub fn figure13(env: &BenchEnv, intervals: &[usize]) -> String {
    let smart = env.smart();
    let mut t = TextTable::new(["Check interval", "Success rate"]);
    for &interval in intervals {
        let runs = smart_runs(env, RuntimeConfig { check_interval: interval, ..smart });
        t.row([
            format!("{interval}"),
            format!("{:.1}%", success_rate(&runs, smart.quality_target)),
        ]);
    }
    format!(
        "{}\n(paper Figure 13: success decreases as the interval grows; \
         interval 5 is best at ~70%)",
        t.render()
    )
}

/// Ablation: scheduling policies. Compares the full Algorithm 2
/// runtime against the static policies every fixed-model baseline
/// implicitly uses: "static best" (MLP-chosen start, never switch) and
/// "static fastest" (cheapest model, never switch).
pub fn scheduler_ablation(env: &BenchEnv) -> String {
    let smart = env.smart();
    let policies = [
        ("adaptive (Alg. 2)", smart),
        ("static best (MLP pick)", RuntimeConfig { adaptive: false, ..smart }),
        ("static fastest", RuntimeConfig { adaptive: false, use_mlp: false, ..smart }),
    ];
    let mut t = TextTable::new(["Policy", "Success rate", "Total projection (s)", "Restarts"]);
    for (name, cfg) in policies {
        let runs = smart_runs(env, cfg);
        t.row([
            name.to_string(),
            format!("{:.1}%", success_rate(&runs, smart.quality_target)),
            format!("{:.3}", runs.iter().map(|r| r.secs).sum::<f64>()),
            format!("{}", runs.iter().filter(|r| r.restarted).count()),
        ]);
    }
    format!(
        "{}\n(the paper's thesis in one table: no static policy both \
         meets the target consistently and stays fast)",
        t.render()
    )
}

/// Ablation: the Algorithm 2 tolerance band ("close to q"). A zero
/// band switches on every checkpoint; a huge band never switches.
pub fn tolerance_ablation(env: &BenchEnv, tolerances: &[f64]) -> String {
    let smart = env.smart();
    let mut t = TextTable::new(["Tolerance band", "Success rate", "Mean switches", "Restarts"]);
    for &tolerance in tolerances {
        let runs = smart_runs(env, RuntimeConfig { tolerance, ..smart });
        let n = runs.len() as f64;
        t.row([
            format!("±{:.0}%", tolerance * 100.0),
            format!("{:.1}%", success_rate(&runs, smart.quality_target)),
            format!("{:.1}", runs.iter().map(|r| r.events).sum::<usize>() as f64 / n),
            format!("{}", runs.iter().filter(|r| r.restarted).count()),
        ]);
    }
    t.render()
}

/// §4 sensitivity study: how the transformation hyper-parameters
/// affect the quality of the resulting models. Reports the mean
/// DivNorm-derived quality loss of a model trained under each setting.
pub struct AblationRow {
    /// Human-readable setting.
    pub setting: String,
    /// Mean quality loss over the evaluation problems.
    pub quality_loss: f64,
    /// Analytic FLOPs per step (cost proxy).
    pub mflops: f64,
}

/// Runs the transformation-parameter ablations:
/// * layers pruned ∈ {1, 2, 3} (paper: more than one layer is "not good");
/// * pooling insertions ∈ {0, 1, 2} (paper varies the pooled-neuron share);
/// * dropout rate ∈ {5%, 10%, 15%} (paper: 15% notably worse).
pub fn transformation_ablation(env: &BenchEnv) -> Vec<AblationRow> {
    let cfg = &env.offline;
    let set = ProblemSet::training(cfg.train_grid, cfg.train_problems);
    let dataset = ProjectionDataset::generate(&set, cfg.train_steps, cfg.capture_every);
    let eval = EvalContext::new(
        &ProblemSet::evaluation(cfg.eval_grid, cfg.eval_problems.min(8)),
        env.steps.min(24),
    );
    let base = tompson_default();

    let mut variants: Vec<(String, sfn_nn::NetworkSpec)> = vec![("base".into(), base.clone())];
    // Layers pruned.
    for n in 1..=3usize {
        let mut spec = base.clone();
        for k in 0..n {
            if let Some(s) = shallow(&spec, k) {
                spec = s;
            }
        }
        variants.push((format!("prune {n} layer(s)"), spec));
    }
    // Pooling insertions (each halves the interior resolution).
    for n in 1..=2usize {
        let mut spec = base.clone();
        for k in 0..n {
            if let Some(s) = pooling(&spec, k, false) {
                spec = s;
            }
        }
        variants.push((format!("pooling x{n}"), spec));
    }
    // Dropout rates.
    for p in [0.05, 0.10, 0.15] {
        if let Some(spec) = dropout(&base, 1, p) {
            variants.push((format!("dropout {:.0}%", p * 100.0), spec));
        }
    }
    // Narrow fractions.
    for f in [0.1, 0.3, 0.5] {
        if let Some(spec) = narrow(&base, 1, f) {
            variants.push((format!("narrow {:.0}%", f * 100.0), spec));
        }
    }

    let train_cfg = TrainConfig {
        epochs: cfg.train_epochs,
        learning_rate: cfg.learning_rate,
        seed: cfg.seed ^ 0xAB1A,
        ..Default::default()
    };
    sfn_par::map(&variants, |(setting, spec)| {
            let mut net = Network::from_spec(spec, train_cfg.seed).expect("valid variant");
            damp_output_layer(&mut net, 0.02);
            train_network(&mut net, &dataset, &train_cfg);
            let grid = cfg.eval_grid;
            let mflops = net.flops((2, grid, grid)) as f64 / 1e6;
            let model = sfn_modelgen::GeneratedModel {
                id: 0,
                name: setting.clone(),
                origin: sfn_modelgen::Origin::Base,
                spec: spec.clone(),
            };
            let m = eval.measure(&model, net);
            AblationRow {
                setting: setting.clone(),
                quality_loss: m.quality_loss,
                mflops,
            }
    })
}

/// Renders the ablation rows.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut t = TextTable::new(["Setting", "Mean quality loss", "MFLOP/step"]);
    for r in rows {
        t.row([
            r.setting.clone(),
            format!("{:.4}", r.quality_loss),
            format!("{:.1}", r.mflops),
        ]);
    }
    format!(
        "{}\n(paper §4: pruning >1 layer => ~20% loss; pooling >10% of \
         neurons => 35-50% loss; dropout 15% clearly worse than 5-10%)",
        t.render()
    )
}
