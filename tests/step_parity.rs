//! `Simulation::step` against a replica of the step in its defining
//! form: a wall pass after advection, after the forces and after the
//! projection, with every grid operator in its element-by-element
//! reference body. The step keeps one wall pass (two with vorticity
//! confinement on) and walks row slices; its density, velocity and
//! DivNorm must still match the replica bit for bit, under the exact
//! PCG projection and a CNN surrogate, with and without confinement,
//! around an obstacle and in a wall-less box, on one and two threads.

#[path = "../crates/fluid-sim/tests/reference/mod.rs"]
mod reference;

use reference::same_bits;
use smart_fluidnet::grid::{CellFlags, Field2, MacGrid};
use smart_fluidnet::nn::Network;
use smart_fluidnet::sim::advect::{advect_scalar_cubic, advect_scalar_maccormack, advect_velocity};
use smart_fluidnet::sim::forces::add_vorticity_confinement;
use smart_fluidnet::sim::{
    AdvectionScheme, ExactProjector, PressureProjector, SimConfig, Simulation,
};
use smart_fluidnet::solver::{MicPreconditioner, PcgSolver};
use smart_fluidnet::surrogate::{tompson_default, NeuralProjector};

/// Large enough that advection fans its rows out on two threads.
const GRID: usize = 96;
const STEPS: usize = 8;

/// One replica step of `vel` and `density` under `sim`'s config and
/// geometry; returns its DivNorm.
fn replica_step(
    vel: &mut MacGrid,
    density: &mut Field2,
    sim: &Simulation,
    projector: &mut dyn PressureProjector,
) -> f64 {
    let (cfg, flags) = (sim.config(), sim.flags());
    *density = match cfg.advection {
        AdvectionScheme::SemiLagrangian => reference::advect_scalar(vel, density, flags, cfg.dt),
        AdvectionScheme::Cubic => advect_scalar_cubic(vel, density, flags, cfg.dt),
        AdvectionScheme::MacCormack => advect_scalar_maccormack(vel, density, flags, cfg.dt),
    };
    *vel = advect_velocity(vel, cfg.dt);
    reference::enforce_solid_boundaries(vel, flags);
    cfg.source.apply(density, vel, flags);
    reference::add_buoyancy(vel, density, flags, cfg.buoyancy, cfg.dt);
    if cfg.vorticity_epsilon > 0.0 {
        add_vorticity_confinement(vel, flags, cfg.vorticity_epsilon, cfg.dt);
    }
    reference::enforce_solid_boundaries(vel, flags);
    let div = reference::divergence(vel, flags);
    let outcome = projector.solve_pressure(&div, flags, cfg.dx, cfg.dt);
    let scale = cfg.dt / (cfg.rho * cfg.dx);
    reference::subtract_pressure_gradient(vel, &outcome.pressure, flags, scale);
    reference::enforce_solid_boundaries(vel, flags);
    reference::div_norm(vel, flags, sim.weights())
}

fn assert_same(what: &str, got: &[f64], want: &[f64]) {
    for (k, (&a, &b)) in got.iter().zip(want).enumerate() {
        assert!(same_bits(a, b), "{what}[{k}]: {a:e} vs replica {b:e}");
    }
}

/// Steps a simulation and the replica side by side, each with its own
/// projector from `projector`, comparing every step.
fn compare(
    label: &str,
    flags: &CellFlags,
    vorticity_epsilon: f64,
    projector: &dyn Fn() -> Box<dyn PressureProjector>,
) {
    let mut cfg = SimConfig::plume(GRID);
    cfg.vorticity_epsilon = vorticity_epsilon;
    let mut sim = Simulation::new(cfg, flags.clone());
    let (mut vel, mut density) = (sim.velocity().clone(), sim.density().clone());
    let (mut live, mut replica) = (projector(), projector());
    for step in 0..STEPS {
        let stats = sim.step(live.as_mut());
        let dn = replica_step(&mut vel, &mut density, &sim, replica.as_mut());
        let what = format!("{label}, step {step}");
        assert!(
            same_bits(stats.div_norm, dn),
            "{what}: DivNorm {:e} vs {dn:e}",
            stats.div_norm
        );
        assert_same(
            &format!("{what}: density"),
            sim.density().data(),
            density.data(),
        );
        assert_same(&format!("{what}: u"), sim.velocity().u.data(), vel.u.data());
        assert_same(&format!("{what}: v"), sim.velocity().v.data(), vel.v.data());
    }
}

// One test function: `with_threads` is process-global.
#[test]
fn step_matches_the_three_wall_pass_replica_bit_for_bit() {
    let pcg = || -> Box<dyn PressureProjector> {
        Box::new(ExactProjector::new(PcgSolver::new(
            MicPreconditioner::default(),
            1e-6,
            10_000,
        )))
    };
    let cnn = || -> Box<dyn PressureProjector> {
        let net = Network::from_spec(&tompson_default(), 3).expect("default spec builds");
        Box::new(NeuralProjector::new(net, "tompson"))
    };
    let mut obstacle = CellFlags::smoke_box(GRID, GRID);
    obstacle.add_solid_disc(GRID as f64 * 0.5, GRID as f64 * 0.6, GRID as f64 * 0.1);
    let open = CellFlags::all_fluid(GRID, GRID);
    for threads in [1, 2] {
        sfn_par::with_threads(threads, || {
            for (geometry, flags) in [("smoke box + disc", &obstacle), ("all fluid", &open)] {
                for eps in [0.0, 2.0] {
                    for (name, projector) in [("pcg", &pcg as &dyn Fn() -> _), ("cnn", &cnn)] {
                        let label = format!("{name}, {geometry}, ε {eps}, {threads} threads");
                        compare(&label, flags, eps, projector);
                    }
                }
            }
        });
    }
}
