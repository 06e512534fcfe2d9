//! Quality-SLA walkthrough — the paper's Figure 7 example.
//!
//! A user states a requirement `U(q, t)`; the runtime starts with the
//! model the MLP rates most likely to satisfy it, then every check
//! interval predicts the final quality loss (CumDivNorm regression +
//! KNN) and switches models — or restarts with PCG — to honour the
//! requirement. This example prints the full decision trace for three
//! different quality targets over the same input problem.
//!
//! ```sh
//! cargo run --release --example quality_sla
//! ```

use smart_fluidnet::core::{OfflineConfig, SmartFluidnet};
use smart_fluidnet::runtime::{RuntimeConfig, SchedulerEvent};
use smart_fluidnet::sim::quality_loss;
use smart_fluidnet::workload::ProblemSet;

fn main() {
    let config = OfflineConfig::quick().from_env();
    let framework = SmartFluidnet::build_cached(&config);
    let (q_base, _) = framework.requirement();
    let steps = 32;

    let problem = ProblemSet::evaluation(config.eval_grid, 2).problem(1);

    // The PCG ground truth for judging the outcomes.
    let (reference, _) = problem.reference(steps);

    // Three SLAs: loose, the derived baseline, and near-impossible.
    for (label, q) in [
        ("loose   (4x baseline)", q_base * 4.0),
        ("baseline (Tompson avg)", q_base),
        ("strict  (baseline/50) ", q_base / 50.0),
    ] {
        println!("\n=== SLA {label}: quality loss <= {q:.5} ===");
        let mut rt = framework.runtime_with(RuntimeConfig {
            total_steps: steps,
            quality_target: q,
            ..Default::default()
        });
        let out = rt.run(problem.simulation());
        for e in &out.events {
            match e {
                SchedulerEvent::Switch {
                    step,
                    from,
                    to,
                    predicted_loss,
                } => println!("  step {step:>3}: {from} -> {to}   (predicted {predicted_loss:.5})"),
                SchedulerEvent::Restart {
                    step,
                    predicted_loss,
                } => println!("  step {step:>3}: RESTART with PCG (predicted {predicted_loss:.5})"),
                SchedulerEvent::Quarantine { step, model, strikes, until_interval } => println!(
                    "  step {step:>3}: QUARANTINE {model} (strike {strikes}, until {until_interval:?})"
                ),
                SchedulerEvent::Rollback { step, to_step, from, to } => println!(
                    "  step {step:>3}: ROLLBACK to step {to_step}, {from} -> {to}"
                ),
                SchedulerEvent::Degrade { step, barred } => println!(
                    "  step {step:>3}: DEGRADE to PCG ({barred} models barred)"
                ),
            }
        }
        if out.events.is_empty() {
            println!("  (no switches: first model held for the whole run)");
        }
        let achieved = quality_loss(&out.density, &reference);
        println!(
            "  achieved quality loss {achieved:.5}  -> requirement {}",
            if achieved <= q { "MET" } else { "MISSED" }
        );
        let used: Vec<String> = out
            .model_names
            .iter()
            .zip(&out.steps_per_model)
            .filter(|(_, &s)| s > 0)
            .map(|(n, &s)| format!("{n}({s})"))
            .collect();
        println!(
            "  models used: {}{}",
            used.join(", "),
            if out.restarted { "  + PCG restart" } else { "" }
        );
    }
}
