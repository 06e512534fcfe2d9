//! The grid-size sweep shared by Figure 8 (speedup), Figure 9 (quality
//! box-plots), Table 2 (success rates) and Figure 12 (MLP effect).
//!
//! Every run is a query of the run table ([`crate::runs`]): the sweep
//! reuses the runs the other experiments made at the evaluation grid,
//! and a killed sweep resumes from the runs it logged.

use crate::env::BenchEnv;
use crate::runs::{success_rate, Method, RunRecord};
use sfn_runtime::RuntimeConfig;
use sfn_stats::{BoxplotSummary, Summary, TextTable};

/// Per-grid sweep results.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Grid size.
    pub grid: usize,
    /// PCG projection seconds per problem.
    pub pcg_secs: Vec<f64>,
    /// Fixed Tompson-model runs.
    pub tompson: Vec<RunRecord>,
    /// Adaptive Smart-fluidnet runs (with MLP).
    pub smart: Vec<RunRecord>,
    /// Adaptive runs without the MLP (Figure 12 baseline).
    pub smart_no_mlp: Vec<RunRecord>,
}

/// The whole sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// One entry per grid size.
    pub grids: Vec<SweepGrid>,
    /// The quality requirement used.
    pub quality_target: f64,
}

/// Queries the sweep: PCG, Tompson and Smart with and without the MLP
/// on `problems_per_grid` problems at every grid.
pub fn sweep(env: &BenchEnv) -> Sweep {
    let tompson = env.tompson();
    let smart = env.smart();
    let no_mlp = RuntimeConfig { use_mlp: false, ..smart };
    let count = env.problems_per_grid;
    let grids = env
        .grids
        .iter()
        .map(|&grid| SweepGrid {
            grid,
            pcg_secs: env.runs(&Method::Pcg, grid, count).iter().map(|r| r.secs).collect(),
            tompson: env.runs(&tompson, grid, count),
            smart: env.runs(&Method::Smart(smart), grid, count),
            smart_no_mlp: env.runs(&Method::Smart(no_mlp), grid, count),
        })
        .collect();
    Sweep { grids, quality_target: smart.quality_target }
}

impl Sweep {
    /// Figure 8: mean speedup over PCG per grid, Tompson vs Smart.
    pub fn render_figure8(&self) -> String {
        let mut t = TextTable::new([
            "Grid (ours)",
            "Grid (paper)",
            "Tompson speedup",
            "Smart-fluidnet speedup",
            "Smart vs Tompson",
        ]);
        let mut ratios = Vec::new();
        for (i, g) in self.grids.iter().enumerate() {
            let pcg: f64 = g.pcg_secs.iter().sum();
            let tom: f64 = g.tompson.iter().map(|r| r.secs).sum();
            let sm: f64 = g.smart.iter().map(|r| r.secs).sum();
            let s_t = pcg / tom.max(1e-12);
            let s_s = pcg / sm.max(1e-12);
            ratios.push(s_s / s_t.max(1e-12));
            t.row([
                format!("{0}x{0}", g.grid),
                crate::env::BenchEnv::paper_grid_label(i).to_string(),
                format!("{s_t:.1}x"),
                format!("{s_s:.1}x"),
                format!("{:.2}x", s_s / s_t.max(1e-12)),
            ]);
        }
        let geo = Summary::geo_mean(&ratios).unwrap_or(f64::NAN);
        format!(
            "{}\nmean Smart-vs-Tompson improvement: {:.2}x \
             (paper: 1.46x mean, up to 2.25x; paper speedups vs PCG are GPU-vs-CPU, up to ~710x)",
            t.render(),
            geo
        )
    }

    /// Figure 9: quality-loss box-plots per grid.
    pub fn render_figure9(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "target quality loss (Tompson average): {:.4}\n",
            self.quality_target
        ));
        for g in &self.grids {
            let tq: Vec<f64> = g.tompson.iter().map(|r| r.qloss).collect();
            let sq: Vec<f64> = g.smart.iter().map(|r| r.qloss).collect();
            let bt = BoxplotSummary::from_data(&tq).expect("tompson data");
            let bs = BoxplotSummary::from_data(&sq).expect("smart data");
            out.push_str(&format!(
                "grid {0}x{0}\n  Tompson       {1}\n  Smart-fluidnet {2}\n",
                g.grid,
                bt.render(),
                bs.render()
            ));
        }
        out.push_str(
            "(paper: Smart-fluidnet's boxes sit closer to the target with smaller variance)",
        );
        out
    }

    /// Table 2: percentage of problems meeting the quality requirement.
    pub fn render_table2(&self) -> String {
        let mut t = TextTable::new(["Grid", "Paper grid", "Tompson", "Smart-fluidnet"]);
        let q = self.quality_target;
        for (i, g) in self.grids.iter().enumerate() {
            t.row([
                format!("{0}x{0}", g.grid),
                crate::env::BenchEnv::paper_grid_label(i).to_string(),
                format!("{:.1}%", success_rate(&g.tompson, q)),
                format!("{:.1}%", success_rate(&g.smart, q)),
            ]);
        }
        format!(
            "{}\n(paper Table 2: Tompson 46-85%, Smart-fluidnet 86-91%, \
             gap up to 44.67% at 1024x1024)",
            t.render()
        )
    }

    /// Figure 12: success rate with vs without the MLP, plus relative
    /// performance.
    pub fn render_figure12(&self) -> String {
        let mut t = TextTable::new([
            "Grid",
            "Success w/o MLP",
            "Success with MLP",
            "Time w/ MLP vs w/o",
        ]);
        let q = self.quality_target;
        for g in &self.grids {
            let secs = |rs: &[RunRecord]| -> f64 { rs.iter().map(|r| r.secs).sum() };
            t.row([
                format!("{0}x{0}", g.grid),
                format!("{:.1}%", success_rate(&g.smart_no_mlp, q)),
                format!("{:.1}%", success_rate(&g.smart, q)),
                format!("{:.0}%", 100.0 * secs(&g.smart) / secs(&g.smart_no_mlp).max(1e-12)),
            ]);
        }
        format!(
            "{}\n(paper: with-MLP success averages 88.86%, always above no-MLP; \
             with-MLP runtime is 79-97% of no-MLP)",
            t.render()
        )
    }
}
