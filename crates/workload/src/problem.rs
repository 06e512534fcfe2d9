//! Input problems and problem sets.
//!
//! The paper evaluates on 20,480 input problems per dataset (train and
//! evaluation, non-overlapping). An [`InputProblem`] bundles everything
//! one simulation run needs: configuration, geometry and the turbulent
//! initial velocity. A [`ProblemSet`] derives per-problem seeds from a
//! base seed so the train/eval split is disjoint by construction.

use crate::geometry::GeometrySpec;
use crate::turbulence::TurbulenceSpec;
use sfn_grid::{CellFlags, Field2, MacGrid};
use sfn_sim::{ExactProjector, SimConfig, Simulation};
use sfn_solver::{MicPreconditioner, PcgSolver};

/// The exact projector every ground truth uses: MIC(0)-preconditioned
/// CG to a relative residual of 1e-7 (at most 100 000 iterations),
/// labelled `pcg`. The offline stage, the bench harness and the tests
/// all measure quality loss against it.
pub fn reference_projector() -> ExactProjector<PcgSolver<MicPreconditioner>> {
    ExactProjector::labelled(PcgSolver::new(MicPreconditioner::default(), 1e-7, 100_000), "pcg")
}

/// One fluid-simulation input problem.
#[derive(Debug, Clone)]
pub struct InputProblem {
    /// Index within its problem set.
    pub id: usize,
    /// The seed every random component of this problem derives from.
    pub seed: u64,
    /// Simulation configuration.
    pub config: SimConfig,
    /// Occupancy geometry.
    pub flags: CellFlags,
    /// Turbulent initial velocity.
    pub initial_velocity: MacGrid,
}

impl InputProblem {
    /// Instantiates the simulation for this problem.
    pub fn simulation(&self) -> Simulation {
        Simulation::with_initial_velocity(
            self.config,
            self.flags.clone(),
            self.initial_velocity.clone(),
        )
    }

    /// Runs the PCG ground truth ([`reference_projector`]) for `steps`
    /// steps: the final density and the seconds spent projecting.
    pub fn reference(&self, steps: usize) -> (Field2, f64) {
        let mut sim = self.simulation();
        let stats = sim.run(steps, &mut reference_projector());
        let secs = stats.iter().map(|s| s.projection_time.as_secs_f64()).sum();
        (sim.density().clone(), secs)
    }
}

/// Parameters for generating a family of problems.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProblemSet {
    /// Grid size (square grids, as in the paper's evaluation).
    pub grid: usize,
    /// Number of problems.
    pub count: usize,
    /// Base seed; problem `i` uses `base_seed + i` for geometry and a
    /// decorrelated stream for turbulence.
    pub base_seed: u64,
    /// Turbulence parameters.
    pub turbulence: TurbulenceSpec,
    /// Geometry parameters.
    pub geometry: GeometrySpec,
}

impl ProblemSet {
    /// An evaluation set with default physics at the given grid size.
    pub fn evaluation(grid: usize, count: usize) -> Self {
        Self {
            grid,
            count,
            base_seed: 0x5EED_0001,
            turbulence: TurbulenceSpec::default(),
            geometry: GeometrySpec::default(),
        }
    }

    /// A training set guaranteed not to overlap [`Self::evaluation`]
    /// (disjoint base-seed ranges).
    pub fn training(grid: usize, count: usize) -> Self {
        Self {
            grid,
            count,
            base_seed: 0xBEEF_8000_0000,
            turbulence: TurbulenceSpec::default(),
            geometry: GeometrySpec::default(),
        }
    }

    /// Generates problem `i` (0-based).
    ///
    /// # Panics
    /// Panics if `i >= count`.
    pub fn problem(&self, i: usize) -> InputProblem {
        assert!(i < self.count, "problem index {i} out of {}", self.count);
        let seed = self.base_seed.wrapping_add(i as u64);
        let config = SimConfig::plume(self.grid);
        let flags = self
            .geometry
            .generate(self.grid, self.grid, &config.source, seed);
        let initial_velocity =
            self.turbulence
                .generate(self.grid, self.grid, seed.wrapping_mul(0x9E3779B97F4A7C15));
        InputProblem {
            id: i,
            seed,
            config,
            flags,
            initial_velocity,
        }
    }

    /// Iterates over all problems.
    pub fn iter(&self) -> impl Iterator<Item = InputProblem> + '_ {
        (0..self.count).map(|i| self.problem(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problems_are_deterministic() {
        let set = ProblemSet::evaluation(32, 4);
        let a = set.problem(2);
        let b = set.problem(2);
        assert_eq!(a.flags, b.flags);
        assert_eq!(a.initial_velocity, b.initial_velocity);
    }

    #[test]
    fn problems_differ_from_each_other() {
        let set = ProblemSet::evaluation(32, 4);
        let a = set.problem(0);
        let b = set.problem(1);
        assert_ne!(a.initial_velocity, b.initial_velocity);
    }

    #[test]
    fn train_eval_disjoint_seeds() {
        let train = ProblemSet::training(32, 100);
        let eval = ProblemSet::evaluation(32, 100);
        for i in 0..100 {
            assert_ne!(train.problem(i).seed, eval.problem(i).seed);
        }
    }

    #[test]
    fn simulation_boots_from_problem() {
        let set = ProblemSet::evaluation(24, 1);
        let p = set.problem(0);
        let sim = p.simulation();
        assert!(sim.is_healthy());
        assert_eq!(sim.flags(), &p.flags);
        // Initial velocity must carry over (modulo solid-boundary
        // enforcement, which zeroes wall faces).
        let mut any_nonzero = false;
        for &u in sim.velocity().u.data() {
            any_nonzero |= u != 0.0;
        }
        assert!(any_nonzero, "initial turbulence lost");
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_problem_panics() {
        let set = ProblemSet::evaluation(16, 2);
        let _ = set.problem(2);
    }

    #[test]
    fn a_problem_does_not_depend_on_the_set_count() {
        let one = ProblemSet::evaluation(16, 3).problem(2);
        for n in [4, 8, 64] {
            let other = ProblemSet::evaluation(16, n).problem(2);
            assert_eq!((other.id, other.seed), (one.id, one.seed));
            assert_eq!(other.flags, one.flags);
            assert_eq!(other.initial_velocity, one.initial_velocity);
        }
    }

    #[test]
    fn iter_yields_count_problems() {
        let set = ProblemSet::evaluation(16, 5);
        assert_eq!(set.iter().count(), 5);
        let ids: Vec<usize> = set.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
