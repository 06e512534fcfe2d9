//! Table 4: FLOP-per-step and memory per method.
//!
//! The paper reports single-step FLOP counts and GPU memory at grid
//! 512×512; we report the analytic FLOPs of one projection and the
//! resident memory of each method (solver state fields / network
//! parameters + activations) at a configurable grid.

use crate::env::BenchEnv;
use sfn_grid::{CellFlags, Field2};
use sfn_nn::flops::model_bytes;
use sfn_sim::PressureProjector;
use sfn_stats::TextTable;
use sfn_workload::{reference_projector, ProblemSet};

/// One Table 4 row.
pub struct ResourceRow {
    /// Method name.
    pub method: String,
    /// FLOPs for one pressure solve.
    pub flops: u64,
    /// Resident bytes of the method's state.
    pub bytes: u64,
}

/// Computes the Table 4 rows at `grid`.
pub fn table4(env: &BenchEnv, grid: usize) -> Vec<ResourceRow> {
    // PCG: measure an actual solve to get the iteration-dependent FLOPs.
    let (flags, div) = representative_divergence(grid);
    let mut pcg = reference_projector();
    let outcome = pcg.solve_pressure(&div, &flags, 1.0, 0.5);
    // PCG memory: x, r, z, s, As, precon + rhs ≈ 7 grid fields of f64.
    let pcg_bytes = 7 * (grid * grid * 8) as u64;

    let art = env.framework.artifacts();
    let tompson = &art.measurements[art.base_index];
    let t_flops = sfn_nn::flops::spec_flops(&tompson.saved.spec, (2, grid, grid)).expect("spec");
    let t_bytes = model_bytes(&tompson.saved.spec, (2, grid, grid)).expect("spec");

    // Smart-fluidnet: all selected models resident (the paper notes its
    // higher memory because "five neural network models on GPU"), FLOPs
    // as the selection-probability-weighted mean.
    let mut s_bytes = 0u64;
    let mut s_flops_weighted = 0.0f64;
    let mut weight_total = 0.0f64;
    for c in &art.selected {
        s_bytes += model_bytes(&c.saved.spec, (2, grid, grid)).expect("spec");
        let f = sfn_nn::flops::spec_flops(&c.saved.spec, (2, grid, grid)).expect("spec") as f64;
        s_flops_weighted += c.probability.max(1e-3) * f;
        weight_total += c.probability.max(1e-3);
    }
    let s_flops = (s_flops_weighted / weight_total.max(1e-12)) as u64;

    vec![
        ResourceRow {
            method: "PCG".into(),
            flops: outcome.flops,
            bytes: pcg_bytes,
        },
        ResourceRow {
            method: "Tompson".into(),
            flops: t_flops,
            bytes: t_bytes,
        },
        ResourceRow {
            method: "Smart-fluidnet".into(),
            flops: s_flops,
            bytes: s_bytes,
        },
    ]
}

/// Renders Table 4 with the paper's 512×512 numbers alongside.
pub fn render_table4(rows: &[ResourceRow], grid: usize) -> String {
    let paper = [
        ("PCG", "~1,250 M", "332 MB"),
        ("Tompson", "243.79 M", "299 MB"),
        ("Smart-fluidnet", "110.97 M", "1,069 MB"),
    ];
    let mut t = TextTable::new([
        "Method",
        &format!("FLOP/step @{grid}² (ours)"),
        "Memory (ours)",
        "Paper FLOP @512²",
        "Paper GPU mem",
    ]);
    for (r, (pn, pf, pm)) in rows.iter().zip(paper) {
        assert!(r.method.starts_with(pn.split('-').next().unwrap_or(pn)) || r.method == pn);
        t.row([
            r.method.clone(),
            format!("{:.2} M", r.flops as f64 / 1e6),
            format!("{:.2} MB", r.bytes as f64 / 1e6),
            pf.to_string(),
            pm.to_string(),
        ]);
    }
    format!(
        "{}\n(shape check: Smart < Tompson < PCG in FLOPs; Smart holds \
         every selected model resident, so its memory exceeds both)",
        t.render()
    )
}

/// A realistic pressure right-hand side: the divergence after a few
/// buoyancy steps (Table 4 solves it, so the PCG FLOP count sees a
/// representative spectrum, not white noise).
pub fn representative_divergence(grid: usize) -> (CellFlags, Field2) {
    let problem = ProblemSet::evaluation(grid, 1).problem(0);
    let mut sim = problem.simulation();
    sim.run(4, &mut reference_projector());
    // One more un-projected force step to get a non-trivial divergence.
    let flags = sim.flags().clone();
    let mut vel = sim.velocity().clone();
    sfn_sim::forces::add_buoyancy(&mut vel, sim.density(), &flags, 1.0, 0.5);
    let div = vel.divergence(&flags);
    (flags, div)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representative_divergence_is_nontrivial() {
        let (flags, div) = representative_divergence(16);
        assert_eq!(flags.nx(), 16);
        assert!(div.max_abs() > 1e-9, "divergence {:.3e}", div.max_abs());
    }
}
