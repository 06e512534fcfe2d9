//! Shared benchmark environment: the cached offline pipeline, the
//! experiment scale knobs and the run table every experiment queries.

use crate::runs::{Method, RunRecord, RunTable};
use sfn_obs::env::{knob, process, List, Lookup};
use sfn_runtime::RuntimeConfig;
use smart_fluidnet_core::{OfflineArtifacts, OfflineConfig, SmartFluidnet};

/// One benchmark session's configuration and offline artifacts.
pub struct BenchEnv {
    /// The trained Smart-fluidnet pipeline (cached on disk).
    pub framework: SmartFluidnet,
    /// The offline configuration used to build it.
    pub offline: OfflineConfig,
    /// Grid sizes for the grid-sweep experiments (Figures 8/9, Tables
    /// 2, Figure 12). Our CPU-scale stand-ins for the paper's
    /// 128²…1024².
    pub grids: Vec<usize>,
    /// Problems per grid in sweep experiments.
    pub problems_per_grid: usize,
    /// Simulation steps per problem (the paper runs 128).
    pub steps: usize,
    /// Every (method, problem) run the experiments share, logged next
    /// to the artifact cache.
    pub table: RunTable,
}

impl BenchEnv {
    /// Builds (or loads from cache) the standard benchmark environment.
    pub fn standard() -> Self {
        Self::build(OfflineConfig::default(), false)
    }

    /// A seconds-scale environment for smoke-testing the harness.
    pub fn quick() -> Self {
        Self::build(OfflineConfig::quick(), true)
    }

    fn build(offline: OfflineConfig, quick: bool) -> Self {
        let offline = offline.from_env();
        let framework = SmartFluidnet::build_cached(&offline);
        let (grids, problems_per_grid, steps) = sweep_scale(&process, quick);
        let table = RunTable::open(&OfflineArtifacts::cache_dir(), framework.artifacts());
        Self { framework, offline, grids, problems_per_grid, steps, table }
    }

    /// `method`'s runs on evaluation problems `0..count` at `grid`, for
    /// [`Self::steps`] steps each.
    pub fn runs(&self, method: &Method, grid: usize, count: usize) -> Vec<RunRecord> {
        sfn_par::map_range(count, |i| self.table.run(&self.framework, method, grid, i, self.steps))
    }

    /// The base (Tompson) model as a fixed method.
    pub fn tompson(&self) -> Method<'_> {
        let art = self.framework.artifacts();
        Method::Fixed { name: "tompson", model: &art.measurements[art.base_index].saved }
    }

    /// The adaptive runtime's default configuration for these runs: the
    /// paper's defaults at the framework's quality requirement.
    pub fn smart(&self) -> RuntimeConfig {
        RuntimeConfig {
            total_steps: self.steps,
            quality_target: self.framework.requirement().0,
            ..Default::default()
        }
    }

    /// The paper's grid label corresponding to our `i`-th sweep grid
    /// (for side-by-side reporting).
    pub fn paper_grid_label(i: usize) -> &'static str {
        ["128*128", "256*256", "512*512", "768*768", "1024*1024"]
            .get(i)
            .copied()
            .unwrap_or("-")
    }
}

/// The sweep scale `(grids, problems per grid, steps)` with the
/// `SFN_BENCH_{GRIDS,PROBLEMS,STEPS}` overrides applied. Quick runs
/// always sweep 16² and 24².
fn sweep_scale(get: Lookup, quick: bool) -> (Vec<usize>, usize, usize) {
    if quick {
        (vec![16, 24], knob(get, "SFN_BENCH_PROBLEMS", 2), knob(get, "SFN_BENCH_STEPS", 16))
    } else {
        (
            knob(get, "SFN_BENCH_GRIDS", List(vec![16, 24, 32, 48, 64])).0,
            knob(get, "SFN_BENCH_PROBLEMS", 4),
            knob(get, "SFN_BENCH_STEPS", 32),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_env_builds() {
        let env = BenchEnv::quick();
        assert!(!env.grids.is_empty());
        assert!(env.steps >= 8);
        assert!(!env.framework.artifacts().selected.is_empty());
    }

    #[test]
    fn grid_labels_cover_five_paper_sizes() {
        assert_eq!(BenchEnv::paper_grid_label(0), "128*128");
        assert_eq!(BenchEnv::paper_grid_label(4), "1024*1024");
        assert_eq!(BenchEnv::paper_grid_label(9), "-");
    }

    #[test]
    fn sweep_scale_applies_the_bench_knobs() {
        let unset = |_: &str| None;
        assert_eq!(sweep_scale(&unset, false), (vec![16, 24, 32, 48, 64], 4, 32));
        assert_eq!(sweep_scale(&unset, true), (vec![16, 24], 2, 16));
        let set = |name: &str| match name {
            "SFN_BENCH_GRIDS" => Some("32, 64".to_string()),
            "SFN_BENCH_PROBLEMS" => Some(" 3 ".to_string()),
            "SFN_BENCH_STEPS" => Some("not-a-number".to_string()),
            _ => None,
        };
        assert_eq!(sweep_scale(&set, false), (vec![32, 64], 3, 32));
        assert_eq!(sweep_scale(&set, true), (vec![16, 24], 3, 16), "quick keeps its grids");
    }
}
