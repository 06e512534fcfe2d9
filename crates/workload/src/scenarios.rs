//! Named simulation scenarios beyond the random evaluation problems —
//! classic smoke-simulation setups used by the examples and for
//! qualitative sanity checks of the surrogates.

use crate::problem::InputProblem;
use crate::turbulence::TurbulenceSpec;
use sfn_grid::{CellFlags, MacGrid};
use sfn_sim::SimConfig;

/// The available scenario presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// A clean rising plume, no obstacles, no initial turbulence.
    RisingPlume,
    /// A plume hitting a disc obstacle above the inlet (Kármán-style
    /// shedding at sufficient resolution).
    PlumeOverDisc,
    /// Two side inlets colliding in the centre.
    CollidingPlumes,
    /// A plume threading a narrow slot between two plates.
    SlottedWall,
    /// A turbulent box: strong initial curl-noise, centred source.
    TurbulentBox,
}

impl Scenario {
    /// All presets.
    pub const ALL: [Scenario; 5] = [
        Scenario::RisingPlume,
        Scenario::PlumeOverDisc,
        Scenario::CollidingPlumes,
        Scenario::SlottedWall,
        Scenario::TurbulentBox,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::RisingPlume => "rising-plume",
            Scenario::PlumeOverDisc => "plume-over-disc",
            Scenario::CollidingPlumes => "colliding-plumes",
            Scenario::SlottedWall => "slotted-wall",
            Scenario::TurbulentBox => "turbulent-box",
        }
    }

    /// Builds the scenario at grid size `n` (square). `seed` only
    /// affects scenarios with random components.
    pub fn build(self, n: usize, seed: u64) -> InputProblem {
        assert!(n >= 16, "scenario grids start at 16");
        let nf = n as f64;
        let mut config = SimConfig::plume(n);
        let mut flags = CellFlags::smoke_box(n, n);
        let mut initial_velocity = MacGrid::new(n, n, config.dx);
        match self {
            Scenario::RisingPlume => {}
            Scenario::PlumeOverDisc => {
                flags.add_solid_disc(nf * 0.5, nf * 0.55, nf * 0.08);
            }
            Scenario::CollidingPlumes => {
                // Two low inlets near the side walls; buoyancy carries
                // both plumes up and inward.
                config.source.x0 = nf * 0.08;
                config.source.x1 = nf * 0.22;
                config.source.y0 = nf * 0.05;
                config.source.y1 = nf * 0.12;
                // Mirror obstacle-free; the second inlet is emulated by
                // an initial upward jet on the right.
                for j in 0..(n / 6) {
                    for i in (n * 3 / 4)..(n - 2) {
                        initial_velocity.v.set(i, j, 1.5);
                    }
                }
            }
            Scenario::SlottedWall => {
                let y0 = nf * 0.5;
                let y1 = nf * 0.56;
                flags.add_solid_box(1.0, y0, nf * 0.42, y1);
                flags.add_solid_box(nf * 0.58, y0, nf - 1.0, y1);
            }
            Scenario::TurbulentBox => {
                let spec = TurbulenceSpec {
                    rms_velocity: 1.5,
                    ..Default::default()
                };
                initial_velocity = spec.generate(n, n, seed);
                config.source.x0 = nf * 0.4;
                config.source.x1 = nf * 0.6;
            }
        }
        InputProblem {
            id: 0,
            seed,
            config,
            flags,
            initial_velocity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(scenario: Scenario) -> sfn_sim::Simulation {
        let p = scenario.build(24, 7);
        let mut sim = p.simulation();
        sim.run(12, &mut crate::reference_projector());
        sim
    }

    #[test]
    fn every_scenario_runs_stably() {
        for s in Scenario::ALL {
            let sim = run(s);
            assert!(sim.is_healthy(), "{} produced non-finite state", s.name());
            assert!(sim.density().sum() > 0.0, "{} emitted no smoke", s.name());
        }
    }

    #[test]
    fn slotted_wall_blocks_midline() {
        let p = Scenario::SlottedWall.build(32, 0);
        // The wall row must contain both solid and fluid (the slot).
        let j = 17; // inside [0.5, 0.56] * 32
        let solids = (0..32).filter(|&i| p.flags.is_solid(i, j)).count();
        assert!(solids > 16, "wall missing: {solids} solid cells");
        assert!(solids < 32, "slot missing");
    }

    #[test]
    fn turbulent_box_depends_on_seed() {
        let a = Scenario::TurbulentBox.build(24, 1);
        let b = Scenario::TurbulentBox.build(24, 2);
        assert_ne!(a.initial_velocity, b.initial_velocity);
    }

    #[test]
    fn source_stays_inside_domain() {
        for s in Scenario::ALL {
            let p = s.build(48, 3);
            let src = p.config.source;
            assert!(src.x0 >= 0.0 && src.x1 <= 48.0, "{}", s.name());
            assert!(src.y0 >= 0.0 && src.y1 <= 48.0, "{}", s.name());
        }
    }
}
