//! Smoke-plume demo: the paper's 2-D Eulerian smoke simulation,
//! rendered as ASCII frames, comparing the exact PCG projection with a
//! (quickly trained) Tompson-style neural surrogate.
//!
//! ```sh
//! cargo run --release --example smoke_plume
//! ```

use smart_fluidnet::grid::{CellFlags, Field2};
use smart_fluidnet::sim::{quality_loss, SimConfig, Simulation};
use smart_fluidnet::surrogate::{
    tompson_spec, train_projection_model, NeuralProjector, ProjectionDataset, TrainConfig,
};
use smart_fluidnet::workload::{reference_projector, ProblemSet};

const GRID: usize = 48;
const STEPS: usize = 48;

fn render(density: &Field2, flags: &CellFlags) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let mut out = String::new();
    // Terminal cells are taller than wide: sample every other row, top
    // to bottom (grid j grows upward).
    for j in (0..density.h()).rev().step_by(2) {
        for i in 0..density.w() {
            if flags.is_solid(i, j) {
                out.push('█');
            } else {
                let d = density.at(i, j).clamp(0.0, 1.0);
                let idx = (d * (RAMP.len() - 1) as f64).round() as usize;
                out.push(RAMP[idx] as char);
            }
        }
        out.push('\n');
    }
    out
}

fn main() {
    // An obstacle-laden smoke box.
    let cfg = SimConfig::plume(GRID);
    let mut flags = CellFlags::smoke_box(GRID, GRID);
    flags.add_solid_disc(GRID as f64 * 0.5, GRID as f64 * 0.55, GRID as f64 * 0.08);

    // Reference run: MICCG(0), the paper's exact method.
    println!("running PCG (MICCG(0)) reference simulation...");
    let mut pcg_sim = Simulation::new(cfg, flags.clone());
    let pcg_stats = pcg_sim.run(STEPS, &mut reference_projector());
    let pcg_secs: f64 = pcg_stats.iter().map(|s| s.projection_time.as_secs_f64()).sum();

    // Quickly train a small Tompson-style surrogate and rerun.
    println!("training a Tompson-style surrogate (small budget)...");
    let dataset = ProjectionDataset::generate(&ProblemSet::training(32, 3), 12, 2);
    let (net, report) = train_projection_model(
        &tompson_spec(8),
        &dataset,
        &TrainConfig {
            epochs: 60,
            ..Default::default()
        },
    );
    println!(
        "  DivNorm training loss: {:.4} -> {:.4}",
        report.loss_curve[0], report.final_loss
    );
    let mut nn_sim = Simulation::new(cfg, flags.clone());
    let mut nn = NeuralProjector::new(net, "tompson");
    let nn_stats = nn_sim.run(STEPS, &mut nn);
    let nn_secs: f64 = nn_stats.iter().map(|s| s.projection_time.as_secs_f64()).sum();

    println!("\n=== PCG frame (step {STEPS}) ===");
    print!("{}", render(pcg_sim.density(), &flags));
    println!("\n=== neural-surrogate frame (step {STEPS}) ===");
    print!("{}", render(nn_sim.density(), &flags));

    let qloss = quality_loss(nn_sim.density(), pcg_sim.density());
    println!("\nprojection time : PCG {pcg_secs:.3}s vs NN {nn_secs:.3}s  ({:.1}x speedup)", pcg_secs / nn_secs.max(1e-12));
    println!("quality loss    : {qloss:.5}  (Eq. 3 vs the PCG frame)");
    println!(
        "final DivNorm   : PCG {:.2e} vs NN {:.2e}",
        pcg_stats.last().unwrap().div_norm,
        nn_stats.last().unwrap().div_norm
    );
}
