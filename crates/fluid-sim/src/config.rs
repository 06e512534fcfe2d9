//! Simulation configuration.

use crate::source::SmokeSource;

/// The density-advection scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdvectionScheme {
    /// First-order semi-Lagrangian with bilinear sampling (mantaflow's
    /// default, and ours).
    #[default]
    SemiLagrangian,
    /// Semi-Lagrangian with clamped Catmull-Rom sampling (third order
    /// where smooth).
    Cubic,
    /// MacCormack/BFECC with a monotonicity clamp (second order).
    MacCormack,
}

/// Parameters of one smoke-plume simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Grid width in cells.
    pub nx: usize,
    /// Grid height in cells.
    pub ny: usize,
    /// Cell size (1.0 throughout the reproduction; kept configurable).
    pub dx: f64,
    /// Time step Δt.
    pub dt: f64,
    /// Fluid density ρ (Eq. 1); 1.0 by convention.
    pub rho: f64,
    /// Buoyancy coefficient α (upward force per unit smoke density).
    pub buoyancy: f64,
    /// Vorticity-confinement strength ε (0 disables).
    pub vorticity_epsilon: f64,
    /// Density-advection scheme.
    pub advection: AdvectionScheme,
    /// DivNorm weight parameter `k` of Eq. 5.
    pub divnorm_k: f64,
    /// The smoke emitter.
    pub source: SmokeSource,
}

impl SimConfig {
    /// Canonical smoke-plume setup for an `n × n` grid (the paper's 2-D
    /// smoke benchmark; all physical constants in grid units).
    pub fn plume(n: usize) -> Self {
        assert!(n >= 8, "grid too small for a plume");
        Self {
            nx: n,
            ny: n,
            dx: 1.0,
            // CFL-friendly step: buoyancy accelerates the plume to a few
            // cells per step at most.
            dt: 0.5,
            rho: 1.0,
            buoyancy: 1.0,
            vorticity_epsilon: 0.0,
            advection: AdvectionScheme::SemiLagrangian,
            divnorm_k: 3.0,
            source: SmokeSource::plume_inlet(n, n),
        }
    }

    /// Validates invariants. [`crate::Simulation::try_new`] calls it,
    /// so a hand-edited config that breaks one is refused there.
    pub fn validate(&self) -> Result<(), String> {
        if self.nx < 4 || self.ny < 4 {
            return Err(format!("grid {}x{} too small", self.nx, self.ny));
        }
        if !(self.dx > 0.0 && self.dx.is_finite()) {
            return Err("dx must be positive".into());
        }
        if !(self.dt > 0.0 && self.dt.is_finite()) {
            return Err("dt must be positive".into());
        }
        if self.rho <= 0.0 {
            return Err("rho must be positive".into());
        }
        if self.divnorm_k < 1.0 {
            return Err("divnorm_k must be >= 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plume_config_is_valid() {
        for n in [16, 32, 64, 128, 256] {
            let c = SimConfig::plume(n);
            assert!(c.validate().is_ok(), "n={n}");
        }
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = SimConfig::plume(32);
        c.dt = 0.0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::plume(32);
        c.dx = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = SimConfig::plume(32);
        c.nx = 2;
        assert!(c.validate().is_err());
    }
}
