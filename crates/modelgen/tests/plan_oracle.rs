//! The inference plan's standing oracle, as a seeded property:
//! [`Plan`] and [`Network::predict`] agree `to_bits` on every output
//! element, for every architecture the §4 transformations generate
//! from the reference models — whatever the grid, the SIMD level and
//! the thread count.

use sfn_modelgen::transform::{dropout, narrow, pooling, shallow};
use sfn_nn::network::SavedModel;
use sfn_nn::plan::Plan;
use sfn_nn::{LayerSpec, Network, NetworkSpec, Tensor};
use sfn_par::simd::{self, SimdLevel};
use sfn_rng::prop::{self, Gen};
use sfn_surrogate::{tompson_default, tompson_spec, yang_default};

/// The reference models, one of every transformation at every conv
/// position of each, and two hand-built nets for what those never
/// produce: convs of `ic·k² ≥ 1024` (plain and residual), and
/// stand-alone `ReLU` / `Tanh` / `Sigmoid` after a pool.
fn specs() -> Vec<NetworkSpec> {
    let mut out = Vec::new();
    for base in [tompson_default(), yang_default(), tompson_spec(24)] {
        for which in 0..6 {
            out.extend(shallow(&base, which));
            out.extend(narrow(&base, which, 0.25));
            out.extend(pooling(&base, which, false));
            out.extend(pooling(&base, which, true));
            out.extend(dropout(&base, which, 0.2));
        }
        out.push(base);
    }
    out.dedup();
    use LayerSpec::*;
    let conv = |in_ch, out_ch, kernel, residual| Conv2d { in_ch, out_ch, kernel, residual };
    out.push(NetworkSpec::new(vec![
        conv(2, 41, 3, false),
        ReLU,
        conv(41, 41, 5, true),
        ReLU,
        conv(41, 2, 5, false),
        conv(2, 1, 1, false),
    ]));
    out.push(NetworkSpec::new(vec![
        conv(2, 4, 3, false),
        MaxPool { size: 2 },
        ReLU,
        conv(4, 4, 3, true),
        Tanh,
        AvgPool { size: 3 },
        Sigmoid,
        Upsample { factor: 6 },
        conv(4, 1, 3, false),
    ]));
    out
}

/// A model of `spec` with non-zero biases and a few exactly-zero
/// weights (the tap lists skip those).
fn model(spec: &NetworkSpec, g: &mut Gen) -> SavedModel {
    let mut saved = Network::from_spec(spec, g.range(0..u64::MAX)).expect("spec builds").save();
    for tensor in &mut saved.weights {
        for v in tensor.iter_mut() {
            *v = if g.range(0..9) == 0 { 0.0 } else { *v + g.range(-0.05f32..0.05) };
        }
    }
    saved
}

/// Runs a plan of `saved` on `input` twice — the second pass over the
/// first one's buffers — and returns the output planes, flattened.
fn planned(saved: &SavedModel, input: &Tensor) -> Vec<f32> {
    let (_, c, h, w) = input.shape();
    let mut plan = Plan::new(&saved.spec, &saved.weights, (c, h, w)).expect("oracle accepted it");
    let mut out = Vec::new();
    for _ in 0..2 {
        for ch in 0..c {
            for (y, row) in input.plane(0, ch).chunks(w).enumerate() {
                plan.input_row_mut(ch, y).copy_from_slice(row);
            }
        }
        plan.run();
        let (oc, oh, _) = plan.output_shape();
        out = (0..oc * oh).flat_map(|r| plan.output_row(r / oh, r % oh).to_vec()).collect();
    }
    out
}

// One test function: the SIMD level and the thread count are
// process-global.
#[test]
fn plan_matches_network_predict_bit_for_bit() {
    let specs = specs();
    assert!(specs.len() > 40, "the transformations generated {} specs", specs.len());
    prop::cases(2 * specs.len(), |g| {
        let spec = &specs[g.case % specs.len()];
        let wide = spec.layers.iter().any(
            |l| matches!(l, LayerSpec::Conv2d { in_ch, kernel, .. } if in_ch * kernel * kernel >= 1024),
        );
        // Sizes straddling the 8- and 32-wide vector blocks; the wide
        // net is three orders of magnitude dearer per cell.
        let side = |g: &mut Gen| if wide { g.range(2..=20) } else { g.range(2..=70usize) };
        let (h, w) = (side(g), side(g));
        let saved = model(spec, g);
        let input = Tensor::from_fn(1, 2, h, w, |_, _, _, _| match g.range(0..12) {
            0 => -0.0,
            1 => 0.0,
            _ => g.range(-2.0f32..2.0),
        });
        if spec.validate((2, h, w)).is_err() {
            assert!(Plan::new(&saved.spec, &saved.weights, (2, h, w)).is_err());
            return;
        }
        let want = Network::load(&saved, 0).expect("own snapshot").predict(&input);
        let threads = [1, 2, 5][g.range(0..3usize)];
        for level in [SimdLevel::Scalar, simd::detect()] {
            let got = sfn_par::with_threads(threads, || simd::with_level(level, || planned(&saved, &input)));
            assert_eq!(got.len(), want.len());
            for (i, (a, b)) in want.data().iter().zip(&got).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "{} at {h}x{w}, {level:?}, {threads} threads: element {i}: {a} vs {b}",
                    spec.render()
                );
            }
        }
    });
}
