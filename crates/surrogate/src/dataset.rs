//! Training-data generation for projection surrogates.
//!
//! Runs reference simulations (PCG projection) over a training problem
//! set and captures, at sampled time steps, what the DivNorm objective
//! needs: the pre-projection divergence, the geometry and the Eq. 5
//! weights. The objective is unsupervised, so no pressure is kept.

use sfn_grid::{distance::divnorm_weights, CellFlags, Field2};
use sfn_nn::Tensor;
use sfn_sim::{ExactProjector, PressureProjector};
use sfn_solver::{MicPreconditioner, PcgSolver};
use sfn_workload::ProblemSet;

/// One training sample.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Normalised network input `[1, 2, h, w]`: channel 0 is the
    /// divergence divided by `scale`, channel 1 the solid occupancy.
    pub input: Tensor,
    /// The normalisation factor `max|∇·u*|` (1.0 when the field was
    /// all-zero).
    pub scale: f64,
    /// Raw (unnormalised) divergence field.
    pub divergence: Field2,
    /// Index into [`ProjectionDataset::geometries`].
    pub geometry: usize,
}

/// A dataset of projection samples over a pool of geometries.
#[derive(Debug, Clone)]
pub struct ProjectionDataset {
    /// Distinct geometries referenced by samples.
    pub geometries: Vec<CellFlags>,
    /// Eq. 5 weight field per geometry.
    pub weights: Vec<Field2>,
    /// Occupancy image per geometry (cached network channel 1).
    occupancy: Vec<Field2>,
    /// The samples.
    pub samples: Vec<Sample>,
    /// Time step shared by all samples.
    pub dt: f64,
    /// Grid spacing.
    pub dx: f64,
}

/// Fixed output gain: the network predicts `p̂ / (scale · GAIN)`.
///
/// The discrete Poisson solution is one to two orders of magnitude
/// larger than its right-hand side (the inverse Laplacian amplifies
/// smooth modes by ~R²/π² over a receptive field of R cells), so
/// letting the net work in O(1) outputs and folding the magnitude into
/// a constant dramatically speeds up training. The value is tied to
/// the surrogates' receptive field, not the grid size, so it is valid
/// across resolutions.
pub const PRESSURE_GAIN: f64 = 10.0;

/// The normalisation factor of a divergence field: `max|∇·u*|`, or 1
/// for an all-zero field.
pub fn divergence_scale(divergence: &Field2) -> f64 {
    let m = divergence.max_abs();
    if m > 0.0 {
        m
    } else {
        1.0
    }
}

/// Builds the normalised `[1, 2, h, w]` input tensor from a divergence
/// field and occupancy image. Returns the tensor and the scale.
pub fn build_input(divergence: &Field2, occupancy: &Field2) -> (Tensor, f64) {
    let (w, h) = (divergence.w(), divergence.h());
    let scale = divergence_scale(divergence);
    let mut t = Tensor::zeros(1, 2, h, w);
    for j in 0..h {
        for i in 0..w {
            t.set(0, 0, j, i, (divergence.at(i, j) / scale) as f32);
            t.set(0, 1, j, i, occupancy.at(i, j) as f32);
        }
    }
    (t, scale)
}

/// Converts a `[1, 1, h, w]` network output plane into a pressure
/// field, rescaling by `scale ·` [`PRESSURE_GAIN`] and zeroing
/// non-fluid cells.
pub fn output_to_pressure(output: &Tensor, scale: f64, flags: &CellFlags) -> Field2 {
    let (n, c, h, w) = output.shape();
    assert_eq!((n, c), (1, 1), "expected a single pressure plane");
    assert_eq!((flags.nx(), flags.ny()), (w, h), "geometry shape");
    let s = scale * PRESSURE_GAIN;
    Field2::from_fn(w, h, |i, j| {
        if flags.is_fluid(i, j) {
            output.at(0, 0, j, i) as f64 * s
        } else {
            0.0
        }
    })
}

impl ProjectionDataset {
    /// Generates a dataset by running each problem of `set` for
    /// `steps` time steps under exact PCG projection and capturing
    /// every `capture_every`-th step.
    pub fn generate(set: &ProblemSet, steps: usize, capture_every: usize) -> Self {
        assert!(capture_every >= 1, "capture_every must be >= 1");
        let mut geometries = Vec::new();
        let mut weights = Vec::new();
        let mut occupancy = Vec::new();
        let mut samples = Vec::new();
        let mut dt = 0.0;
        let mut dx = 1.0;
        for problem in set.iter() {
            dt = problem.config.dt;
            dx = problem.config.dx;
            let geom_idx = geometries.len();
            geometries.push(problem.flags.clone());
            weights.push(divnorm_weights(&problem.flags, problem.config.divnorm_k));
            occupancy.push(problem.flags.occupancy());
            let mut sim = problem.simulation();
            let solver = PcgSolver::new(MicPreconditioner::default(), 1e-7, 50_000);
            let mut projector = CapturingProjector {
                inner: ExactProjector::labelled(solver, "pcg"),
                captured: Vec::new(),
                capture_next: false,
            };
            for step in 0..steps {
                projector.capture_next = step % capture_every == 0;
                sim.step(&mut projector);
            }
            for div in projector.captured {
                let (input, scale) = build_input(&div, &occupancy[geom_idx]);
                samples.push(Sample {
                    input,
                    scale,
                    divergence: div,
                    geometry: geom_idx,
                });
            }
        }
        Self {
            geometries,
            weights,
            occupancy,
            samples,
            dt,
            dx,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were captured.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Occupancy image of geometry `g`.
    pub fn occupancy(&self, g: usize) -> &Field2 {
        &self.occupancy[g]
    }
}

/// Wraps an exact projector, keeping a copy of the divergence on
/// flagged steps.
struct CapturingProjector<S> {
    inner: ExactProjector<S>,
    captured: Vec<Field2>,
    capture_next: bool,
}

impl<S: sfn_solver::PoissonSolver> PressureProjector for CapturingProjector<S> {
    fn solve_pressure(
        &mut self,
        divergence: &Field2,
        flags: &CellFlags,
        dx: f64,
        dt: f64,
    ) -> sfn_sim::ProjectionOutcome {
        if self.capture_next {
            self.captured.push(divergence.clone());
        }
        self.inner.solve_pressure(divergence, flags, dx, dt)
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_workload::ProblemSet;

    #[test]
    fn generates_expected_sample_count() {
        let set = ProblemSet::training(16, 2);
        let ds = ProjectionDataset::generate(&set, 6, 2);
        // 2 problems × ⌈6/2⌉ captures.
        assert_eq!(ds.len(), 6);
        assert_eq!(ds.geometries.len(), 2);
        assert_eq!(ds.dt, 0.5);
    }

    #[test]
    fn inputs_are_normalised() {
        let set = ProblemSet::training(16, 1);
        let ds = ProjectionDataset::generate(&set, 4, 1);
        for s in &ds.samples {
            let max = s
                .input
                .plane(0, 0)
                .iter()
                .fold(0.0f32, |m, &v| m.max(v.abs()));
            assert!(max <= 1.0 + 1e-5, "divergence channel not normalised: {max}");
            assert!(s.scale > 0.0);
            // Occupancy channel is binary.
            for &o in s.input.plane(0, 1) {
                assert!(o == 0.0 || o == 1.0);
            }
        }
    }

    #[test]
    fn input_round_trip_through_output() {
        let set = ProblemSet::training(16, 1);
        let ds = ProjectionDataset::generate(&set, 1, 1);
        let s = &ds.samples[0];
        let flags = &ds.geometries[s.geometry];
        // Identity "network": output = input channel 0 -> pressure is
        // scale * normalised divergence on fluid cells.
        let (_, c, h, w) = s.input.shape();
        assert_eq!(c, 2);
        let out = Tensor::from_vec(1, 1, h, w, s.input.plane(0, 0).to_vec());
        let p = output_to_pressure(&out, s.scale, flags);
        for j in 0..h {
            for i in 0..w {
                if flags.is_fluid(i, j) {
                    let want = PRESSURE_GAIN * s.divergence.at(i, j);
                    assert!((p.at(i, j) - want).abs() < 1e-3, "{} vs {want}", p.at(i, j));
                } else {
                    assert_eq!(p.at(i, j), 0.0);
                }
            }
        }
    }
}
