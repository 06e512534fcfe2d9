//! The time-stepping loop of Algorithm 1.
//!
//! Each step performs, in order:
//!
//! 1. **Advection** — density and velocity are traced through the
//!    current velocity field (`u_A = advect(u_n, Δt, q)`).
//! 2. **Sources & body forces** — the smoke inlet stamps density; the
//!    buoyancy force (and optional vorticity confinement) produce the
//!    tentative velocity `u_B = u_A + Δt·f`.
//! 3. **Pressure projection** — `∇·u_B` is handed to the pluggable
//!    [`PressureProjector`]; the returned pressure is subtracted,
//!    `u_{n+1} = u_B − Δt(1/ρ)∇p`.
//!
//! After projection the step records the `DivNorm` of Eq. 5, which the
//! adaptive runtime accumulates into `CumDivNorm`.
//!
//! Walls: the step makes one wall pass
//! ([`MacGrid::enforce_solid_boundaries`]), after the forces, so the
//! divergence reads zero on every face a solid touches. The source and
//! buoyancy touch only faces between two fluid cells, so that pass
//! serves them too; vorticity confinement reads every face, so with it
//! on a second pass runs after advection. The projection needs none:
//! [`MacGrid::subtract_pressure_gradient`] zeroes those faces itself.

use crate::advect::{advect_scalar, advect_scalar_cubic, advect_scalar_maccormack, advect_velocity};
use crate::config::AdvectionScheme;
use crate::diagnostics::diagnostics;
use crate::error::SimError;
use crate::forces::{add_buoyancy, add_vorticity_confinement};
use crate::metrics::div_norm;
use crate::projection::PressureProjector;
use crate::SimConfig;
use sfn_grid::{distance::divnorm_weights, CellFlags, Field2, MacGrid};
use sfn_obs::Level;
use std::time::Duration;

/// Steps between `sim.diagnostics` events when debug observability is
/// on (diagnostics cost a divergence pass, so they are sampled).
const DIAGNOSTICS_EVERY: usize = 8;

/// Per-step telemetry.
#[derive(Debug, Clone)]
pub struct StepStats {
    /// Step index (0-based; the value *after* this step ran is `step+1`
    /// completed steps).
    pub step: usize,
    /// `DivNorm` of the projected velocity (Eq. 5).
    pub div_norm: f64,
    /// Inner-solver iterations of the projection backend.
    pub solver_iterations: usize,
    /// Whether the projection backend converged.
    pub converged: bool,
    /// FLOPs of the projection solve.
    pub projection_flops: u64,
    /// Wall time of the projection solve.
    pub projection_time: Duration,
    /// Maximum velocity magnitude after the step (CFL diagnostics).
    pub max_speed: f64,
}

/// One running smoke simulation.
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimConfig,
    flags: CellFlags,
    vel: MacGrid,
    density: Field2,
    weights: Field2,
    steps_done: usize,
    blowup_reported: bool,
}

impl Simulation {
    /// Creates a simulation over the given geometry. The flags must
    /// match the configured grid size.
    ///
    /// # Panics
    /// Panics where [`Simulation::try_new`] would return an error.
    pub fn new(config: SimConfig, flags: CellFlags) -> Self {
        Self::try_new(config, flags).expect("simulation construction failed")
    }

    /// Creates a simulation over the given geometry, surfacing invalid
    /// configs and mismatched geometry as typed [`SimError`]s.
    pub fn try_new(config: SimConfig, flags: CellFlags) -> Result<Self, SimError> {
        config.validate().map_err(SimError::InvalidConfig)?;
        if (flags.nx(), flags.ny()) != (config.nx, config.ny) {
            return Err(SimError::GeometryMismatch {
                expected: (config.nx, config.ny),
                got: (flags.nx(), flags.ny()),
            });
        }
        let weights = divnorm_weights(&flags, config.divnorm_k);
        let mut vel = MacGrid::new(config.nx, config.ny, config.dx);
        vel.enforce_solid_boundaries(&flags);
        Ok(Self {
            config,
            density: Field2::new(flags.nx(), flags.ny()),
            weights,
            flags,
            vel,
            steps_done: 0,
            blowup_reported: false,
        })
    }

    /// Creates a simulation with a prescribed initial velocity (the
    /// workload generator's turbulent field). The velocity is projected
    /// onto solids immediately.
    ///
    /// # Panics
    /// Panics where [`Simulation::try_with_initial_velocity`] would
    /// return an error.
    pub fn with_initial_velocity(config: SimConfig, flags: CellFlags, vel: MacGrid) -> Self {
        Self::try_with_initial_velocity(config, flags, vel)
            .expect("simulation construction failed")
    }

    /// Fallible variant of [`Simulation::with_initial_velocity`].
    pub fn try_with_initial_velocity(
        config: SimConfig,
        flags: CellFlags,
        mut vel: MacGrid,
    ) -> Result<Self, SimError> {
        if (vel.nx(), vel.ny()) != (config.nx, config.ny) {
            return Err(SimError::GeometryMismatch {
                expected: (config.nx, config.ny),
                got: (vel.nx(), vel.ny()),
            });
        }
        vel.enforce_solid_boundaries(&flags);
        let mut sim = Self::try_new(config, flags)?;
        sim.vel = vel;
        Ok(sim)
    }

    /// Replaces non-finite velocity components with `0.0` and clamps
    /// magnitudes above `max_speed`, returning the number of repaired
    /// components. A non-zero repair count re-arms the blow-up guard so
    /// a later destabilisation is reported again.
    pub fn clamp_and_report(&mut self, max_speed: f64) -> usize {
        let mut repaired = 0usize;
        for comp in [self.vel.u.data_mut(), self.vel.v.data_mut()] {
            for v in comp {
                if !v.is_finite() {
                    *v = 0.0;
                    repaired += 1;
                } else if v.abs() > max_speed {
                    *v = v.signum() * max_speed;
                    repaired += 1;
                }
            }
        }
        if repaired > 0 {
            self.vel.enforce_solid_boundaries(&self.flags);
            self.blowup_reported = false;
            sfn_obs::event(Level::Warn, "sim.sanitized")
                .field_u64("step", self.steps_done as u64)
                .field_u64("repaired", repaired as u64)
                .field_f64("max_speed", max_speed)
                .emit();
            sfn_obs::note_incident("sim.sanitized");
        }
        repaired
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Cell flags (geometry).
    pub fn flags(&self) -> &CellFlags {
        &self.flags
    }

    /// Current velocity field.
    pub fn velocity(&self) -> &MacGrid {
        &self.vel
    }

    /// Current smoke density matrix (the rendered frame of §2.1).
    pub fn density(&self) -> &Field2 {
        &self.density
    }

    /// Cached DivNorm weight field (Eq. 5).
    pub fn weights(&self) -> &Field2 {
        &self.weights
    }

    /// Number of completed steps.
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    /// Advances the simulation one time step using `projector` for the
    /// pressure solve: one wall pass, two with vorticity confinement on
    /// (see the module doc).
    pub fn step(&mut self, projector: &mut dyn PressureProjector) -> StepStats {
        let cfg = self.config;

        // 1. Advection.
        {
            let _span = sfn_obs::span!("step/advect");
            self.density = match cfg.advection {
                AdvectionScheme::SemiLagrangian => {
                    advect_scalar(&self.vel, &self.density, &self.flags, cfg.dt)
                }
                AdvectionScheme::Cubic => {
                    advect_scalar_cubic(&self.vel, &self.density, &self.flags, cfg.dt)
                }
                AdvectionScheme::MacCormack => {
                    advect_scalar_maccormack(&self.vel, &self.density, &self.flags, cfg.dt)
                }
            };
            self.vel = advect_velocity(&self.vel, cfg.dt);
            // Only confinement reads faces on a solid (module doc).
            if cfg.vorticity_epsilon > 0.0 {
                self.vel.enforce_solid_boundaries(&self.flags);
            }
        }

        // 2. Sources and body forces.
        {
            let _span = sfn_obs::span!("step/forces");
            cfg.source.apply(&mut self.density, &mut self.vel, &self.flags);
            add_buoyancy(&mut self.vel, &self.density, &self.flags, cfg.buoyancy, cfg.dt);
            if cfg.vorticity_epsilon > 0.0 {
                add_vorticity_confinement(&mut self.vel, &self.flags, cfg.vorticity_epsilon, cfg.dt);
            }
            // The wall pass the divergence below relies on.
            self.vel.enforce_solid_boundaries(&self.flags);
        }

        // 3. Pressure projection.
        let outcome = {
            let _span = sfn_obs::span!("step/projection");
            let div = self.vel.divergence(&self.flags);
            let outcome = projector.solve_pressure(&div, &self.flags, cfg.dx, cfg.dt);
            let scale = cfg.dt / (cfg.rho * cfg.dx);
            // Writes zero on every face with a solid neighbour itself.
            self.vel
                .subtract_pressure_gradient(&outcome.pressure, &self.flags, scale);
            outcome
        };

        let dn = div_norm(&self.vel, &self.flags, &self.weights);
        let max_speed = self.vel.max_speed();

        // Blow-up guard: a non-finite DivNorm or velocity means the
        // projector destabilised the run; reported once per simulation.
        if !self.blowup_reported && (!dn.is_finite() || !max_speed.is_finite()) {
            self.blowup_reported = true;
            sfn_obs::event(Level::Error, "sim.blowup")
                .field_u64("step", self.steps_done as u64)
                .field_f64("div_norm", dn)
                .field_f64("max_speed", max_speed)
                .field_str("projector", &projector.name())
                .emit();
            // The blow-up is the archetypal post-mortem moment: flush
            // the flight recorder to the crash file (if configured)
            // while the lead-up events are still in the ring.
            sfn_obs::note_incident("sim.blowup");
        }

        if self.steps_done.is_multiple_of(DIAGNOSTICS_EVERY) && sfn_obs::event_enabled(Level::Debug) {
            let d = diagnostics(&self.vel, &self.density, &self.flags, cfg.dt);
            sfn_obs::event(Level::Debug, "sim.diagnostics")
                .field_u64("step", self.steps_done as u64)
                .field_f64("smoke_mass", d.smoke_mass)
                .field_f64("kinetic_energy", d.kinetic_energy)
                .field_f64("max_divergence", d.max_divergence)
                .field_f64("divergence_l2", d.divergence_l2)
                .field_f64("cfl", d.cfl)
                .emit();
        }

        let stats = StepStats {
            step: self.steps_done,
            div_norm: dn,
            solver_iterations: outcome.iterations,
            converged: outcome.converged,
            projection_flops: outcome.flops,
            projection_time: outcome.wall_time,
            max_speed,
        };
        self.steps_done += 1;
        stats
    }

    /// Runs `n` steps, returning the per-step stats.
    pub fn run(&mut self, n: usize, projector: &mut dyn PressureProjector) -> Vec<StepStats> {
        (0..n).map(|_| self.step(projector)).collect()
    }

    /// True if every state field is finite (failure-injection guard).
    pub fn is_healthy(&self) -> bool {
        self.vel.all_finite() && self.density.all_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::ExactProjector;
    use sfn_solver::{MicPreconditioner, PcgSolver};

    fn pcg_projector() -> ExactProjector<PcgSolver<MicPreconditioner>> {
        ExactProjector::labelled(
            PcgSolver::new(MicPreconditioner::default(), 1e-7, 20_000),
            "pcg",
        )
    }

    #[test]
    fn plume_rises_over_time() {
        let n = 32;
        let cfg = SimConfig::plume(n);
        let flags = CellFlags::smoke_box(n, n);
        let mut sim = Simulation::new(cfg, flags);
        let mut proj = pcg_projector();
        sim.run(64, &mut proj);
        assert!(sim.is_healthy());
        // Smoke must have risen above the inlet: some density in the
        // upper half of the domain.
        let mut upper = 0.0;
        for j in n / 2..n {
            for i in 0..n {
                upper += sim.density().at(i, j);
            }
        }
        assert!(upper > 1.0, "no smoke reached the upper half: {upper}");
    }

    #[test]
    fn exact_projection_keeps_divnorm_tiny() {
        let n = 24;
        let cfg = SimConfig::plume(n);
        let flags = CellFlags::smoke_box(n, n);
        let mut sim = Simulation::new(cfg, flags);
        let mut proj = pcg_projector();
        let stats = sim.run(10, &mut proj);
        for s in &stats {
            assert!(
                s.div_norm < 1e-6,
                "step {}: DivNorm {} too large for exact solve",
                s.step,
                s.div_norm
            );
            assert!(s.converged);
        }
    }

    #[test]
    fn density_stays_bounded() {
        // Semi-Lagrangian + clamped source keeps density in [0, 1].
        let n = 24;
        let cfg = SimConfig::plume(n);
        let flags = CellFlags::smoke_box(n, n);
        let mut sim = Simulation::new(cfg, flags);
        let mut proj = pcg_projector();
        sim.run(40, &mut proj);
        for &d in sim.density().data() {
            assert!((0.0..=1.0 + 1e-9).contains(&d), "density {d} out of range");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let n = 16;
        let cfg = SimConfig::plume(n);
        let run = || {
            let flags = CellFlags::smoke_box(n, n);
            let mut sim = Simulation::new(cfg, flags);
            let mut proj = pcg_projector();
            sim.run(10, &mut proj);
            sim.density().clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn obstacle_blocks_smoke() {
        let n = 32;
        let cfg = SimConfig::plume(n);
        let mut flags = CellFlags::smoke_box(n, n);
        // A wide plate right above the inlet.
        flags.add_solid_box(8.0, 18.0, 24.0, 20.0);
        let mut sim = Simulation::new(cfg, flags);
        let mut proj = pcg_projector();
        sim.run(30, &mut proj);
        assert!(sim.is_healthy());
        // No smoke inside the plate.
        for j in 18..20 {
            for i in 8..24 {
                assert_eq!(sim.density().at(i, j), 0.0, "smoke inside solid at ({i},{j})");
            }
        }
    }

    #[test]
    fn step_stats_sequence() {
        let n = 16;
        let cfg = SimConfig::plume(n);
        let flags = CellFlags::smoke_box(n, n);
        let mut sim = Simulation::new(cfg, flags);
        let mut proj = pcg_projector();
        let stats = sim.run(5, &mut proj);
        let steps: Vec<usize> = stats.iter().map(|s| s.step).collect();
        assert_eq!(steps, vec![0, 1, 2, 3, 4]);
        assert_eq!(sim.steps_done(), 5);
        assert!(stats.iter().all(|s| s.projection_flops > 0 || s.solver_iterations == 0));
    }

    #[test]
    fn try_new_surfaces_typed_errors() {
        let n = 16;
        // Mismatched geometry.
        let err = Simulation::try_new(SimConfig::plume(n), CellFlags::smoke_box(n, 2 * n))
            .unwrap_err();
        assert_eq!(
            err,
            crate::error::SimError::GeometryMismatch { expected: (16, 16), got: (16, 32) }
        );
        // Invalid config.
        let mut cfg = SimConfig::plume(n);
        cfg.dx = -1.0;
        assert!(matches!(
            Simulation::try_new(cfg, CellFlags::smoke_box(n, n)),
            Err(crate::error::SimError::InvalidConfig(_))
        ));
        // Mismatched initial velocity.
        let cfg = SimConfig::plume(n);
        let vel = sfn_grid::MacGrid::new(n, 2 * n, cfg.dx);
        assert!(matches!(
            Simulation::try_with_initial_velocity(cfg, CellFlags::smoke_box(n, n), vel),
            Err(crate::error::SimError::GeometryMismatch { .. })
        ));
    }

    #[test]
    fn clamp_and_report_repairs_poisoned_velocity() {
        let n = 16;
        let mut sim = Simulation::new(SimConfig::plume(n), CellFlags::smoke_box(n, n));
        let mut proj = pcg_projector();
        sim.run(3, &mut proj);
        assert_eq!(sim.clamp_and_report(1e3), 0, "healthy state needs no repair");

        // Poison a few interior components.
        sim.vel.u.set(5, 5, f64::NAN);
        sim.vel.v.set(6, 6, f64::INFINITY);
        sim.vel.u.set(7, 7, 1e9);
        assert!(!sim.is_healthy());
        let repaired = sim.clamp_and_report(1e3);
        assert_eq!(repaired, 3);
        assert!(sim.is_healthy(), "sanitized state must be finite");
        assert!(sim.velocity().max_speed().is_finite());
        // The simulation keeps running cleanly afterwards.
        sim.run(2, &mut proj);
        assert!(sim.is_healthy());
    }

    #[test]
    fn vorticity_confinement_runs_stably() {
        let n = 24;
        let mut cfg = SimConfig::plume(n);
        cfg.vorticity_epsilon = 2.0;
        cfg.advection = crate::config::AdvectionScheme::MacCormack;
        let flags = CellFlags::smoke_box(n, n);
        let mut sim = Simulation::new(cfg, flags);
        let mut proj = pcg_projector();
        sim.run(25, &mut proj);
        assert!(sim.is_healthy());
    }
}
