//! Pins the conv2d FLOP/byte accounting against hand-computed cases.
//!
//! Lives in its own integration-test binary because `sfn_prof` state is
//! process-global: enabling the profiler here must not race the crate's
//! parallel unit tests. The tests in this binary take [`hold`] for the
//! same reason — libtest runs them on parallel threads.
//!
//! Regression context: `Conv2d::forward_direct` used to charge the full
//! `in_ch·(hw + k·k)·4` bytes-read once per (sample, out-channel)
//! plane, overcounting input traffic by ~`out_ch`× and misclassifying
//! conv as memory-bound in the roofline report. The compulsory-traffic
//! model pinned here charges the input once per sample and each plane's
//! own `ic·k·k` filter panel once per plane.

use sfn_nn::layers::{Conv2d, Layer};
use sfn_nn::Tensor;

/// Serialises the tests: each one enables, resets and reads the one
/// process-wide profiler.
fn hold() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn totals(prefix: &str) -> sfn_prof::KernelTotals {
    let mut sum = sfn_prof::KernelTotals::default();
    for (name, t) in sfn_prof::snapshot() {
        if name.starts_with(prefix) {
            sum.calls += t.calls;
            sum.flops += t.flops;
            sum.bytes_read += t.bytes_read;
            sum.bytes_written += t.bytes_written;
        }
    }
    sum
}

#[test]
fn direct_conv_accounting_matches_hand_computed_2x2_case() {
    let _g = hold();
    // 1 input channel, 2 output channels, 3×3 kernel, 2×2 image.
    let (in_ch, out_ch, k, h, w) = (1usize, 2usize, 3usize, 2usize, 2usize);
    let hw = h * w;
    let weight: Vec<f32> = (0..out_ch * in_ch * k * k).map(|i| i as f32 * 0.1).collect();
    let mut layer = Conv2d::from_weights(in_ch, out_ch, k, false, weight, vec![0.0; out_ch]);
    let input = Tensor::from_fn(1, in_ch, h, w, |_, _, y, x| (y * w + x) as f32);

    sfn_prof::set_enabled(true);
    sfn_prof::reset();
    let out = layer.forward(&input, false);
    let t = totals("conv2d.direct");
    sfn_prof::set_enabled(false);

    assert_eq!(out.shape(), (1, out_ch, h, w));
    // FLOPs: 2 per MAC, out_ch planes × ic·k·k·hw MACs each.
    //   2 · (2 · 1·3·3 · 4) = 144
    assert_eq!(t.flops, 2 * (out_ch * in_ch * k * k * hw) as u64);
    assert_eq!(t.flops, 144);
    // Declared analytic FLOPs agree with the measured counter.
    assert_eq!(layer.flops((in_ch, h, w)), t.flops);
    // Bytes read: input charged once per sample (1·4 px · 4 B = 16),
    // plus each plane's own filter panel (9 weights · 4 B = 36, twice).
    assert_eq!(t.bytes_read, (in_ch * hw * 4 + out_ch * in_ch * k * k * 4) as u64);
    assert_eq!(t.bytes_read, 88);
    // Bytes written: the two output planes. 2 · 4 px · 4 B = 32.
    assert_eq!(t.bytes_written, (out_ch * hw * 4) as u64);
    assert_eq!(t.bytes_written, 32);
}

#[test]
fn direct_conv_traffic_does_not_scale_input_reads_by_out_ch() {
    let _g = hold();
    // The regression shape: many output channels over one input. With
    // the old accounting, bytes_read grew ~out_ch× the input size; now
    // the input is charged once and only the weight panels scale.
    let (in_ch, k, h, w) = (1usize, 3usize, 8usize, 8usize);
    let input = Tensor::from_fn(1, in_ch, h, w, |_, _, y, x| (y + x) as f32);
    let mut reads = Vec::new();
    for out_ch in [1usize, 8] {
        let weight = vec![0.5f32; out_ch * in_ch * k * k];
        let mut layer = Conv2d::from_weights(in_ch, out_ch, k, false, weight, vec![0.0; out_ch]);
        sfn_prof::set_enabled(true);
        sfn_prof::reset();
        let _ = layer.forward(&input, false);
        reads.push(totals("conv2d.direct").bytes_read);
        sfn_prof::set_enabled(false);
    }
    let input_bytes = (in_ch * h * w * 4) as u64;
    let panel = (in_ch * k * k * 4) as u64;
    assert_eq!(reads[0], input_bytes + panel);
    assert_eq!(reads[1], input_bytes + 8 * panel);
    // Old (buggy) model would have been 8 · (input + panel).
    assert!(reads[1] < 8 * reads[0]);
}
