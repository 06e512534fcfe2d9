//! The trained answer is pinned bit for bit.
//!
//! A few epochs of `tompson_default` on a small seeded 24² dataset must
//! give the same loss curve and the same weights for every thread count
//! and every SIMD level, and that loss curve must equal constants
//! captured before the conv backward moved onto the vector kernels.
//! A faster backward that changes one trained bit fails here.
//!
//! One test fn: the SIMD level and the thread count are process-global.

use sfn_par::simd::{detect, with_level, SimdLevel};
use sfn_par::with_threads;
use sfn_surrogate::{tompson_default, train_projection_model, ProjectionDataset, TrainConfig};
use sfn_workload::ProblemSet;

const EPOCHS: usize = 4;

/// `loss_curve` bits of [`train`] on [`dataset`] (≈ 0.1383, 0.1412,
/// 0.1309, 0.0811).
const LOSS_BITS: [u64; EPOCHS] = [
    0x3fc1_b4ff_39f5_0ba2,
    0x3fc2_121b_6435_d634,
    0x3fc0_c2c5_bd15_e59b,
    0x3fb4_c434_2997_5026,
];

/// FNV-1a over the little-endian bits of every trained weight, in
/// `Network::save` order.
const WEIGHT_DIGEST: u64 = 0x3401_081d_9bfc_f534;

/// 3 problems × 4 captured steps: one full batch of 8 and a short
/// batch of 4 per epoch. Generated under the scalar level, because the
/// PCG reductions behind the dataset reassociate under AVX2.
fn dataset() -> ProjectionDataset {
    with_level(SimdLevel::Scalar, || {
        ProjectionDataset::generate(&ProblemSet::training(24, 3), 8, 2)
    })
}

/// The loss-curve bits and the weight digest of one training run.
fn train(ds: &ProjectionDataset) -> (Vec<u64>, u64) {
    let cfg = TrainConfig {
        epochs: EPOCHS,
        batch_size: 8,
        learning_rate: 1e-2,
        seed: 7,
    };
    let (mut net, report) = train_projection_model(&tompson_default(), ds, &cfg);
    let bytes: Vec<u8> = net
        .save()
        .weights
        .iter()
        .flatten()
        .flat_map(|w| w.to_bits().to_le_bytes())
        .collect();
    (
        report.loss_curve.iter().map(|l| l.to_bits()).collect(),
        sfn_rng::fnv1a(&bytes),
    )
}

#[test]
fn trained_bits_are_pinned_across_threads_and_simd_levels() {
    let ds = dataset();
    assert_eq!(ds.len(), 12, "dataset size");
    let mut levels = vec![SimdLevel::Scalar];
    if detect() != SimdLevel::Scalar {
        levels.push(detect());
    }
    for level in levels {
        for threads in [1, 2, 8] {
            let (loss, digest) = with_level(level, || with_threads(threads, || train(&ds)));
            let at = format!("{} with {threads} threads", level.as_str());
            assert_eq!(loss, LOSS_BITS, "loss curve bits, {at}");
            assert_eq!(digest, WEIGHT_DIGEST, "weight digest, {at}");
        }
    }
}
