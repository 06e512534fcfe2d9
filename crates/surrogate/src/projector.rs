//! A trained network as a drop-in pressure projector.
//!
//! The projector owns the model once — spec plus weight tensors, as
//! decoded — and compiles it into an [`sfn_nn::plan::Plan`] per
//! geometry. A step then pays for the convolutions and three row
//! loops: the divergence is packed straight into the plan's input
//! plane, the plan runs without allocating, and its output plane is
//! unpacked into the returned pressure. There is no second inference
//! path: `Network::predict` is the plan's test oracle, not a fallback.

use crate::dataset::{divergence_scale, PRESSURE_GAIN};
use crate::models::INPUT_CHANNELS;
use sfn_grid::{CellFlags, Field2};
use sfn_nn::flops::spec_flops;
use sfn_nn::network::SavedModel;
use sfn_nn::plan::{check_model, Plan};
use sfn_nn::spec::SpecError;
use sfn_nn::Network;
use sfn_obs::ScopedTimer;
use sfn_sim::{PressureProjector, ProjectionOutcome};

/// Wraps a trained model as a [`PressureProjector`] (Eq. 4).
///
/// Inference is single-pass: the divergence is normalised by its
/// max-abs, stacked with the occupancy channel, pushed through the
/// network, and the output rescaled — the linearity of the Poisson
/// problem makes the normalisation exact rather than approximate.
pub struct NeuralProjector {
    model: SavedModel,
    label: String,
    /// The plan compiled for the geometry last solved on, its
    /// occupancy channel already written — or why the model cannot
    /// run there — keyed by the flags themselves (a moved obstacle is
    /// a different geometry even when the size and the solid count
    /// agree).
    plan: Option<(CellFlags, Result<Plan, SpecError>)>,
    /// Inferences served so far — the per-projector step index the
    /// fault hooks hash on.
    inferences: u64,
}

impl NeuralProjector {
    /// Wraps a freshly trained network under a report label (e.g.
    /// `"tompson"`, `"M7"`), through its [`Network::save`] snapshot.
    /// Nothing is checked here: a network that is no pressure
    /// surrogate fails every solve, the way a grid the model cannot
    /// run does (see [`NeuralProjector::try_from_saved`]).
    pub fn new(mut network: Network, label: impl Into<String>) -> Self {
        Self { model: network.save(), label: label.into(), plan: None, inferences: 0 }
    }

    /// Loads a snapshot into a projector, copying its tensors as they
    /// are. A malformed model — wrong parameter tensor count or
    /// length, a `Dense` layer, an even kernel, a residual conv with
    /// unequal channels, a first conv not over the two input channels
    /// — is a typed [`SpecError`] here. A model that only fails at a
    /// given grid (a pool larger than it, an output that is not one
    /// grid-sized plane) shows in `solve_pressure` on that grid, which
    /// reports `projector.plan_rejected` once per geometry and returns
    /// a non-converged, all-NaN pressure — what a `nan_output` fault
    /// looks like, and the runtime answers with rollback and
    /// quarantine — instead of panicking.
    pub fn try_from_saved(saved: &SavedModel, label: impl Into<String>) -> Result<Self, SpecError> {
        check_model(&saved.spec, &saved.weights, INPUT_CHANNELS)?;
        Ok(Self { model: saved.clone(), label: label.into(), plan: None, inferences: 0 })
    }

    /// Inferences served so far.
    pub fn inferences(&self) -> u64 {
        self.inferences
    }

    /// Compiles the model for `flags` and writes the occupancy channel
    /// (1 = solid), which no solve touches again.
    fn compile(&self, flags: &CellFlags) -> Result<Plan, SpecError> {
        let (w, h) = (flags.nx(), flags.ny());
        let input = (INPUT_CHANNELS, h, w);
        // Checked before anything is allocated for the grid.
        let out = self.model.spec.output_shape(input)?;
        if out != (1, h, w) {
            return Err(SpecError(format!("output {out:?} is not one {h}x{w} plane")));
        }
        let mut plan = Plan::new(&self.model.spec, &self.model.weights, input)?;
        for j in 0..h {
            for (i, o) in plan.input_row_mut(1, j).iter_mut().enumerate() {
                *o = if flags.is_solid(i, j) { 1.0 } else { 0.0 };
            }
        }
        Ok(plan)
    }
}

/// Writes `divergence / scale` into input channel 0 and returns the
/// scale — channel 0 of [`crate::dataset::build_input`].
fn pack_divergence(divergence: &Field2, plan: &mut Plan) -> f64 {
    let scale = divergence_scale(divergence);
    for (j, row) in divergence.data().chunks(divergence.w()).enumerate() {
        for (o, &d) in plan.input_row_mut(0, j).iter_mut().zip(row) {
            *o = (d / scale) as f32;
        }
    }
    scale
}

/// The plan's output plane as a pressure field: rescaled by `scale ·`
/// [`PRESSURE_GAIN`], non-fluid cells zero —
/// [`crate::dataset::output_to_pressure`].
fn unpack_pressure(plan: &Plan, scale: f64, flags: &CellFlags) -> Field2 {
    let (w, s) = (flags.nx(), scale * PRESSURE_GAIN);
    let mut pressure = Field2::new(w, flags.ny());
    for (j, row) in pressure.data_mut().chunks_mut(w).enumerate() {
        for (i, (p, &o)) in row.iter_mut().zip(plan.output_row(0, j)).enumerate() {
            if flags.is_fluid(i, j) {
                *p = o as f64 * s;
            }
        }
    }
    pressure
}

impl PressureProjector for NeuralProjector {
    fn solve_pressure(
        &mut self,
        divergence: &Field2,
        flags: &CellFlags,
        _dx: f64,
        _dt: f64,
    ) -> ProjectionOutcome {
        let timer = ScopedTimer::start("projector/nn");
        assert_eq!((divergence.w(), divergence.h()), (flags.nx(), flags.ny()), "geometry shape");
        if !matches!(&self.plan, Some((key, _)) if key == flags) {
            self.plan = None;
            let plan = self.compile(flags);
            if let Err(e) = &plan {
                sfn_obs::event(sfn_obs::Level::Warn, "projector.plan_rejected")
                    .field_str("model", &self.label)
                    .field_str("reason", &e.to_string())
                    .emit();
            }
            self.plan = Some((flags.clone(), plan));
        }
        let (mut pressure, converged) = match &mut self.plan.as_mut().expect("just ensured").1 {
            Ok(plan) => {
                let scale = pack_divergence(divergence, plan);
                plan.run();
                (unpack_pressure(plan, scale, flags), true)
            }
            Err(_) => (Field2::from_vec(flags.nx(), flags.ny(), vec![f64::NAN; divergence.len()]), false),
        };
        // Fault hooks: poison the surrogate output and/or stretch the
        // inference — both keyed on this projector's own inference
        // index, so a schedule replays identically across runs.
        sfn_faults::corrupt_field(&self.label, self.inferences, pressure.data_mut());
        if let Some(delay) = sfn_faults::latency_spike(&self.label, self.inferences) {
            std::thread::sleep(delay);
        }
        self.inferences += 1;
        let flops = self.flops_estimate(flags.nx(), flags.ny());
        sfn_obs::counter_add("nn.inferences", 1);
        sfn_obs::counter_add("nn.flops", flops);
        ProjectionOutcome { pressure, iterations: 0, converged, flops, wall_time: timer.stop() }
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn flops_estimate(&self, nx: usize, ny: usize) -> u64 {
        // 0 for a grid the model cannot run at all.
        spec_flops(&self.model.spec, (INPUT_CHANNELS, ny, nx)).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::tompson_default;
    use sfn_sim::{SimConfig, Simulation};

    #[test]
    fn untrained_network_still_runs_simulation() {
        let net = Network::from_spec(&tompson_default(), 3).unwrap();
        let mut proj = NeuralProjector::new(net, "untrained");
        let n = 16;
        let cfg = SimConfig::plume(n);
        let flags = CellFlags::smoke_box(n, n);
        let mut sim = Simulation::new(cfg, flags);
        let stats = sim.run(5, &mut proj);
        assert!(sim.is_healthy(), "NN projection must keep the sim finite");
        assert!(stats.iter().all(|s| s.converged && s.solver_iterations == 0));
        assert!(stats.iter().all(|s| s.projection_flops > 0));
    }

    #[test]
    fn zero_divergence_yields_zero_pressure() {
        let net = Network::from_spec(&tompson_default(), 3).unwrap();
        let mut proj = NeuralProjector::new(net, "t");
        let flags = CellFlags::smoke_box(12, 12);
        let div = Field2::new(12, 12);
        let out = proj.solve_pressure(&div, &flags, 1.0, 0.5);
        // scale = 1, but input ch0 is all zeros; network output can be
        // non-zero (bias terms) — pressure is whatever the net says on
        // fluid cells, zero elsewhere. The guarantee we need is shape +
        // finiteness + zero on non-fluid cells.
        assert!(out.pressure.all_finite());
        for j in 0..12 {
            for i in 0..12 {
                if !flags.is_fluid(i, j) {
                    assert_eq!(out.pressure.at(i, j), 0.0);
                }
            }
        }
    }

    #[test]
    fn scale_equivariance() {
        // p̂(c·d) == c·p̂(d) by construction of the normalisation.
        let net = Network::from_spec(&tompson_default(), 5).unwrap();
        let mut proj = NeuralProjector::new(net, "t");
        let flags = CellFlags::smoke_box(12, 12);
        let div = Field2::from_fn(12, 12, |i, j| {
            if flags.is_fluid(i, j) {
                ((i * 3 + j * 7) % 5) as f64 * 0.1 - 0.2
            } else {
                0.0
            }
        });
        let mut div2 = div.clone();
        div2.scale(3.0);
        let p1 = proj.solve_pressure(&div, &flags, 1.0, 0.5).pressure;
        let p2 = proj.solve_pressure(&div2, &flags, 1.0, 0.5).pressure;
        for (a, b) in p1.data().iter().zip(p2.data()) {
            assert!((3.0 * a - b).abs() < 1e-4 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    fn bits(f: &Field2) -> Vec<u64> {
        f.data().iter().map(|v| v.to_bits()).collect()
    }

    /// A seeded divergence with sign changes, zero on non-fluid cells.
    fn random_divergence(flags: &CellFlags, seed: u64) -> Field2 {
        use sfn_rng::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Field2::from_fn(flags.nx(), flags.ny(), |i, j| {
            let v = rng.random_range(-2.0..2.0);
            if flags.is_fluid(i, j) { v } else { 0.0 }
        })
    }

    #[test]
    fn plan_is_keyed_on_the_geometry_itself() {
        // A and B: same size, same solid count, the disc moved. C: a
        // different grid. One projector driven A → B → A → C must
        // answer like a fresh projector on each.
        let disc_at = |n: usize, cx: f64| {
            let mut f = CellFlags::smoke_box(n, n);
            f.add_solid_disc(cx, n as f64 * 0.5, 3.0);
            f
        };
        let (a, b, c) = (disc_at(24, 8.0), disc_at(24, 15.0), disc_at(20, 9.0));
        assert_eq!(a.solid_count(), b.solid_count());
        assert_ne!(a, b);
        let saved = Network::from_spec(&tompson_default(), 9).unwrap().save();
        let fresh = |flags: &CellFlags| {
            let mut proj = NeuralProjector::try_from_saved(&saved, "fresh").unwrap();
            bits(&proj.solve_pressure(&random_divergence(flags, 4), flags, 1.0, 0.5).pressure)
        };
        let mut kept = NeuralProjector::try_from_saved(&saved, "kept").unwrap();
        for flags in [&a, &b, &a, &c] {
            let div = random_divergence(flags, 4);
            let got = bits(&kept.solve_pressure(&div, flags, 1.0, 0.5).pressure);
            assert!(got == fresh(flags), "stale geometry in a reused projector");
        }
    }

    #[test]
    fn pack_and_unpack_match_the_training_codecs() {
        use crate::dataset::{build_input, output_to_pressure};
        let mut flags = CellFlags::smoke_box(20, 14);
        flags.add_solid_disc(9.0, 6.0, 3.0);
        let div = random_divergence(&flags, 21);
        let (input, scale) = build_input(&div, &flags.occupancy());
        // A 1×1 conv that passes one input channel through unchanged
        // shows that channel, as packed, on the output plane.
        for channel in 0..2 {
            let spec = sfn_nn::NetworkSpec::new(vec![sfn_nn::LayerSpec::Conv2d {
                in_ch: 2,
                out_ch: 1,
                kernel: 1,
                residual: false,
            }]);
            let mut pick = vec![0.0; 2];
            pick[channel] = 1.0;
            let saved = SavedModel { spec, weights: vec![pick, vec![0.0]] };
            let mut proj = NeuralProjector::try_from_saved(&saved, "codec").unwrap();
            let got = proj.solve_pressure(&div, &flags, 1.0, 0.5).pressure;
            let plane = sfn_nn::Tensor::from_vec(1, 1, 14, 20, input.plane(0, channel).to_vec());
            assert_eq!(bits(&got), bits(&output_to_pressure(&plane, scale, &flags)));
        }
        // And end to end against the oracle, on the real architecture.
        let mut net = Network::from_spec(&tompson_default(), 2).unwrap();
        let want = output_to_pressure(&net.predict(&input), scale, &flags);
        let mut proj = NeuralProjector::new(net, "oracle");
        let got = proj.solve_pressure(&div, &flags, 1.0, 0.5).pressure;
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn malformed_models_are_rejected_at_load() {
        use sfn_nn::{LayerSpec, NetworkSpec};
        let good = Network::from_spec(&tompson_default(), 1).unwrap().save();
        let rejected = |m: &SavedModel| NeuralProjector::try_from_saved(m, "bad").is_err();
        assert!(!rejected(&good));
        let mut m = good.clone();
        m.weights.pop();
        assert!(rejected(&m), "tensor count");
        let mut m = good.clone();
        m.weights[0].push(0.0);
        assert!(rejected(&m), "tensor length");
        let conv = |in_ch, out_ch, kernel, residual| SavedModel {
            spec: NetworkSpec::new(vec![LayerSpec::Conv2d { in_ch, out_ch, kernel, residual }]),
            weights: vec![vec![0.0; out_ch * in_ch * kernel * kernel], vec![0.0; out_ch]],
        };
        assert!(rejected(&conv(2, 1, 2, false)), "even kernel");
        assert!(rejected(&conv(2, 1, 3, true)), "residual channel mismatch");
        assert!(rejected(&conv(3, 1, 3, false)), "not over the two input channels");
        let dense = LayerSpec::Dense { inputs: 2 * 8 * 8, outputs: 64 };
        let m = SavedModel { spec: NetworkSpec::new(vec![dense]), weights: vec![vec![0.0; 8192], vec![0.0; 64]] };
        assert!(rejected(&m), "dense");
    }

    #[test]
    fn a_grid_the_model_cannot_run_is_a_failed_projection_not_a_panic() {
        let net = Network::from_spec(&tompson_default(), 1).unwrap();
        let mut proj = NeuralProjector::new(net, "odd-grid");
        // 2× pool then 2× upsample of 9 rows gives 8: not the grid.
        let flags = CellFlags::smoke_box(12, 9);
        let out = proj.solve_pressure(&random_divergence(&flags, 3), &flags, 1.0, 0.5);
        assert!(!out.converged);
        assert!(out.pressure.data().iter().all(|v| v.is_nan()));
        // Asked again, it answers the same without compiling again.
        assert!(!proj.solve_pressure(&random_divergence(&flags, 3), &flags, 1.0, 0.5).converged);
        assert_eq!(proj.inferences(), 2);
        // The projector is still good for a grid the model does accept.
        let flags = CellFlags::smoke_box(12, 12);
        let out = proj.solve_pressure(&random_divergence(&flags, 3), &flags, 1.0, 0.5);
        assert!(out.converged && out.pressure.all_finite());
        // Nor does `new` panic on a network that is no surrogate.
        let dense = sfn_nn::LayerSpec::Dense { inputs: 2 * 12 * 12, outputs: 4 };
        let net = Network::from_spec(&sfn_nn::NetworkSpec::new(vec![dense]), 1).unwrap();
        let out = NeuralProjector::new(net, "dense").solve_pressure(&Field2::new(12, 12), &flags, 1.0, 0.5);
        assert!(!out.converged && out.flops > 0);
    }

    #[test]
    fn nan_fault_poisons_surrogate_output() {
        // Target this test's unique label so concurrent tests with
        // other labels never see the plan.
        let plan = sfn_faults::parse_plan(
            r#"{"seed": 11, "faults": [
                {"kind": "nan_output", "p": 1.0, "target": "poisoned-proj"}]}"#,
        )
        .unwrap();
        let net = Network::from_spec(&tompson_default(), 7).unwrap();
        let mut proj = NeuralProjector::new(net, "poisoned-proj");
        let flags = CellFlags::smoke_box(12, 12);
        let mut div = Field2::new(12, 12);
        div.set(6, 6, 1.0);
        sfn_faults::install(Some(plan));
        let out = proj.solve_pressure(&div, &flags, 1.0, 0.5);
        sfn_faults::install(None);
        assert!(
            !out.pressure.all_finite(),
            "a p=1 nan_output fault must corrupt the pressure"
        );
        assert_eq!(proj.inferences(), 1);
        // With the plan disarmed the projector is clean again.
        let out = proj.solve_pressure(&div, &flags, 1.0, 0.5);
        assert!(out.pressure.all_finite());
    }

    #[test]
    fn reports_flops_matching_network() {
        let net = Network::from_spec(&tompson_default(), 1).unwrap();
        let expect = net.flops((2, 16, 16));
        let mut proj = NeuralProjector::new(net, "t");
        assert_eq!(proj.flops_estimate(16, 16), expect);
        let flags = CellFlags::smoke_box(16, 16);
        let mut div = Field2::new(16, 16);
        div.set(8, 8, 1.0);
        let out = proj.solve_pressure(&div, &flags, 1.0, 0.5);
        assert_eq!(out.flops, expect);
    }
}
