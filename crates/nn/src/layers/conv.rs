//! 2-D convolution with same padding and stride 1.

use crate::init::he_normal;
use crate::layers::{Layer, ParamView};
use crate::spec::LayerSpec;
use crate::tensor::Tensor;
use sfn_rng::rngs::StdRng;

/// 2-D convolution (`OC×IC×K×K` weights, per-channel bias), stride 1,
/// zero "same" padding. With `residual = true` the layer adds its input
/// to its output (identity skip), which requires `in_ch == out_ch`.
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    residual: bool,
    weight: Vec<f32>,
    bias: Vec<f32>,
    grad_weight: Vec<f32>,
    grad_bias: Vec<f32>,
    /// Reused padded-halo scratch for the direct path (see
    /// [`HaloBuf`]). After a training forward it is also the
    /// backward's cache of the input.
    scratch: HaloBuf,
    /// `(n, h, w)` of the training forward whose input `scratch`
    /// holds; an inference forward clears it.
    cached_shape: Option<(usize, usize, usize)>,
    /// `backward`'s reused buffers: `grad_out` padded like the input,
    /// and `grad_out` channel-last.
    grad_padded: HaloBuf,
    grad_lanes: Vec<f32>,
}

/// A padded-halo plane buffer, keyed by the padded geometry (planes,
/// pitch; the length gives the height, as any slack after the last
/// plane is shorter than a row) it was zeroed for. The interior
/// is fully rewritten every call and the halo never, so it is
/// re-zeroed only on a geometry change.
type HaloBuf = Option<(usize, usize, crate::arena::AlignedBuf)>;

/// Copies every `h × w` plane of `src` into the interior of a padded
/// buffer in `slot` (row pitch `pw`, `pad` halo cells on each side,
/// `slack` zeros after the last plane), re-zeroing it only on a
/// geometry change.
fn fill_halo<'a>(slot: &'a mut HaloBuf, src: &Tensor, pad: usize, pw: usize, slack: usize) -> &'a [f32] {
    let (n, c, h, w) = src.shape();
    let planes = n * c;
    let ppl = (h + 2 * pad) * pw;
    let len = planes * ppl + slack;
    if !matches!(slot, Some((p, w, buf)) if (*p, *w, buf.len()) == (planes, pw, len)) {
        *slot = Some((planes, pw, crate::arena::AlignedBuf::zeroed(len)));
    }
    let padded = &mut slot.as_mut().unwrap().2;
    for (p, dst) in padded.as_mut_slice().chunks_exact_mut(ppl).enumerate() {
        let src = src.plane(p / c, p % c);
        for y in 0..h {
            dst[(y + pad) * pw + pad..][..w].copy_from_slice(&src[y * w..][..w]);
        }
    }
    padded
}

impl Conv2d {
    /// Creates a conv layer with He-initialised weights.
    ///
    /// # Panics
    /// Panics on zero channel counts, even kernels, or residual with
    /// mismatched channels.
    pub fn new(in_ch: usize, out_ch: usize, kernel: usize, residual: bool, rng: &mut StdRng) -> Self {
        assert!(in_ch > 0 && out_ch > 0, "channels must be positive");
        assert!(kernel % 2 == 1, "kernel must be odd for same padding");
        assert!(!residual || in_ch == out_ch, "residual needs in_ch == out_ch");
        let w_len = out_ch * in_ch * kernel * kernel;
        Self {
            in_ch,
            out_ch,
            kernel,
            residual,
            weight: he_normal(rng, in_ch * kernel * kernel, w_len),
            bias: vec![0.0; out_ch],
            grad_weight: vec![0.0; w_len],
            grad_bias: vec![0.0; out_ch],
            scratch: None,
            cached_shape: None,
            grad_padded: None,
            grad_lanes: Vec::new(),
        }
    }

    /// Builds a layer from explicit weights (deserialisation,
    /// weight-inheriting model transformations).
    pub fn from_weights(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        residual: bool,
        weight: Vec<f32>,
        bias: Vec<f32>,
    ) -> Self {
        assert_eq!(weight.len(), out_ch * in_ch * kernel * kernel, "weight length");
        assert_eq!(bias.len(), out_ch, "bias length");
        assert!(!residual || in_ch == out_ch, "residual needs in_ch == out_ch");
        let w_len = weight.len();
        Self {
            in_ch,
            out_ch,
            kernel,
            residual,
            weight,
            bias,
            grad_weight: vec![0.0; w_len],
            grad_bias: vec![0.0; out_ch],
            scratch: None,
            cached_shape: None,
            grad_padded: None,
            grad_lanes: Vec::new(),
        }
    }

    /// Weight slice in `OC×IC×K×K` order.
    pub fn weight(&self) -> &[f32] {
        &self.weight
    }

    /// Bias slice.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    #[cfg(test)]
    #[inline]
    fn w_at(&self, oc: usize, ic: usize, ky: usize, kx: usize) -> f32 {
        self.weight[((oc * self.in_ch + ic) * self.kernel + ky) * self.kernel + kx]
    }
}

impl Conv2d {
    /// Direct convolution over padded-halo input copies.
    ///
    /// Each input plane is first copied into a zero-padded buffer whose
    /// row pitch is rounded to a full cache line
    /// ([`crate::arena::padded_pitch`]), so the tap loops are
    /// branch-free with no halo edge cases; each output plane then
    /// goes through [`direct_plane`], the one tap kernel this layer
    /// shares with the inference [`crate::plan::Plan`].
    fn forward_direct(&mut self, input: &Tensor, out: &mut Tensor) {
        let (n, _, h, w) = input.shape();
        let k = self.kernel;
        let pad = k / 2;
        let hw = h * w;
        let in_ch = self.in_ch;
        let out_ch = self.out_ch;
        let chw = in_ch * hw;
        let ickk = in_ch * k * k;
        // Padded-halo copies of every input plane, shared read-only by
        // all output-channel workers.
        let pw = crate::arena::padded_pitch(w + 2 * pad);
        let ppl = (h + 2 * pad) * pw;
        let padded = fill_halo(&mut self.scratch, input, pad, pw, 0);
        let weight = &self.weight;
        let bias = &self.bias;
        let est_ns = super::est_ns(2 * ickk * hw * n * out_ch, true);
        sfn_par::for_each_chunk_mut(out.data_mut(), hw, est_ns, |plane, out_plane| {
            let nn = plane / out_ch;
            let oc = plane % out_ch;
            record_plane_work(ickk, hw, if oc == 0 { chw } else { 0 });
            let taps = taps(&weight[oc * ickk..][..ickk], k, pw, ppl);
            let sample = &padded[nn * in_ch * ppl..][..in_ch * ppl];
            let tight = PlaneOut { dst: out_plane, pitch: w, origin: 0, residual: None, relu: false };
            direct_plane(sample, pw, h, w, &taps, bias[oc], tight);
        });
    }
}

impl Conv2d {
    /// Weight and bias gradients, vectorised across output channels
    /// (lanes = `oc`) over a channel-last copy of `grad_out` and the
    /// training forward's padded input. Every `(oc, ic, ky, kx)` sum
    /// keeps the scalar order: per sample, `acc` starts at `+0.0` and
    /// runs over `y`, then `x`; then `gw += acc`. The halo adds
    /// `g·0.0 = ±0.0` terms the unpadded loops skip; they leave an
    /// accumulator that starts at `+0.0` unchanged (it is never
    /// `-0.0`), so the bits match for finite gradients.
    fn weight_grads(&mut self, grad_out: &Tensor, pw: usize, est_ns: u64) {
        let (n, _, h, w) = grad_out.shape();
        let (k, in_ch, out_ch) = (self.kernel, self.in_ch, self.out_ch);
        let (hw, kk) = (h * w, k * k);
        let ickk = in_ch * kk;
        let ppl = (h + 2 * (k / 2)) * pw;
        let blocks = out_ch.div_ceil(LANES);
        let ocp = blocks * LANES;
        // `ocp` lanes per pixel; the ones past `out_ch` stay zero.
        self.grad_lanes.resize(n * hw * ocp, 0.0);
        for (nn, px) in self.grad_lanes.chunks_exact_mut(hw * ocp).enumerate() {
            for oc in 0..out_ch {
                for (dst, &g) in px[oc..].iter_mut().step_by(ocp).zip(grad_out.plane(nn, oc)) {
                    *dst = g;
                }
            }
        }
        self.grad_bias.fill(0.0);
        for px in self.grad_lanes.chunks_exact(ocp) {
            for (gb, &g) in self.grad_bias.iter_mut().zip(px) {
                *gb += g;
            }
        }
        // One task per (lane block, run of `TAPS` filter taps), each
        // summing over the samples in order into its own slice.
        let runs = ickk.div_ceil(TAPS);
        let padded = &self.scratch.as_ref().expect("the training forward's input").2;
        let lanes = &self.grad_lanes;
        let mut partial = vec![0.0f32; blocks * runs * TAPS * LANES];
        sfn_par::for_each_chunk_mut(&mut partial, TAPS * LANES, est_ns, |task, gw| {
            let (block, run) = (task / runs, task % runs);
            // Tap `j` of the filter panel (`ic·k² + ky·k + kx`) starts at
            // `ic·ppl + ky·pw + kx` of a padded sample. The last run
            // repeats offset 0 past the panel; those sums are dropped.
            let mut offs = [0; TAPS];
            for (off, j) in offs.iter_mut().zip(run * TAPS..ickk) {
                *off = j / kk * ppl + j % kk / k * pw + j % k;
            }
            for nn in 0..n {
                let sample = &padded[nn * in_ch * ppl..][..in_ch * ppl];
                let go = &lanes[nn * hw * ocp..][..hw * ocp];
                weight_grad_taps(sample, &offs, pw, h, go, ocp, block * LANES, gw);
            }
        });
        for (task, gw) in partial.chunks_exact(TAPS * LANES).enumerate() {
            let (block, run) = (task / runs, task % runs);
            for (j, gw) in (run * TAPS..ickk).zip(gw.chunks_exact(LANES)) {
                for (oc, &g) in (block * LANES..out_ch).zip(gw) {
                    self.grad_weight[oc * ickk + j] = g;
                }
            }
        }
    }

    /// The input gradient: `grad_out` correlated with the transposed,
    /// flipped filter ([`grad_taps`]), one [`direct_plane`] call per
    /// (sample, input-channel) plane over a padded-halo copy of
    /// `grad_out`, with the residual skip fused. The taps keep the
    /// scalar `(oc, ky, kx)` order and skip the same zero weights, and
    /// the halo adds only `w·0.0` terms to a sum started at `+0.0`, so
    /// the bits match for finite gradients.
    fn input_grad(&mut self, grad_out: &Tensor, pw: usize, est_ns: u64) -> Tensor {
        let (n, _, h, w) = grad_out.shape();
        let (k, in_ch, out_ch) = (self.kernel, self.in_ch, self.out_ch);
        let pad = k / 2;
        let ppl = (h + 2 * pad) * pw;
        // Whole 8-column blocks: the kernel's vector body computes each
        // column's sum exactly as its scalar tail would, but 8 at once.
        // The extra columns read on into the halo, the next row and
        // `slack` zeros past the last plane, and are dropped.
        let wide = w.next_multiple_of(LANES);
        let slack = (wide + k - 1).saturating_sub(pw);
        let padded = fill_halo(&mut self.grad_padded, grad_out, pad, pw, slack);
        let taps: Vec<Vec<Tap>> =
            (0..in_ch).map(|ic| grad_taps(&self.weight, in_ch, k, ic, pw, ppl)).collect();
        let residual = self.residual;
        let mut grad_in = Tensor::zeros(n, in_ch, h, w);
        sfn_par::for_each_chunk_mut(grad_in.data_mut(), h * w, est_ns, |plane, gi_plane| {
            let (nn, ic) = (plane / in_ch, plane % in_ch);
            let sample = &padded[nn * out_ch * ppl..][..out_ch * ppl + slack];
            let residual = residual.then_some(ic * ppl + pad * pw + pad);
            let mut wide_rows = Vec::new();
            let (dst, pitch) = if wide == w {
                (&mut *gi_plane, w)
            } else {
                wide_rows.resize(h * wide, 0.0);
                (&mut wide_rows[..], wide)
            };
            let out = PlaneOut { dst, pitch, origin: 0, residual, relu: false };
            direct_plane(sample, pw, h, wide, &taps[ic], 0.0, out);
            for (dst, src) in gi_plane.chunks_exact_mut(w).zip(wide_rows.chunks_exact(wide)) {
                dst.copy_from_slice(&src[..w]);
            }
        });
        grad_in
    }
}

/// The non-zero taps of input channel `ic`'s gradient: the transposed,
/// flipped filter in `(oc, ky, kx)` order over a padded `grad_out`
/// sample of row pitch `pw` and plane length `ppl` — offset
/// `oc·ppl + (k−1−ky)·pw + (k−1−kx)`, weight `w[oc, ic, ky, kx]`.
fn grad_taps(weight: &[f32], in_ch: usize, k: usize, ic: usize, pw: usize, ppl: usize) -> Vec<Tap> {
    let kk = k * k;
    let mut taps = Vec::with_capacity(weight.len() / in_ch);
    for (oc, filter) in weight.chunks(in_ch * kk).enumerate() {
        for (ky, wrow) in filter[ic * kk..][..kk].chunks(k).enumerate() {
            for (kx, &wv) in wrow.iter().enumerate() {
                if wv != 0.0 {
                    taps.push((oc * ppl + (k - 1 - ky) * pw + (k - 1 - kx), wv));
                }
            }
        }
    }
    taps
}

/// Output channels per weight-gradient lane block: one AVX2 vector.
const LANES: usize = 8;

/// Filter taps per weight-gradient task: independent sums enough to
/// hide the add latency, few enough to stay in registers.
const TAPS: usize = 8;

/// Adds one sample's sums to `gw` (`TAPS × LANES`, `[tap][lane]`):
/// `gw[t][l] += Σ_y Σ_x go[y, x, lane0 + l] · sample[offs[t] + y·pw + x]`,
/// each sum from `+0.0` in `y`-then-`x` order. `go` is the sample's
/// channel-last `grad_out` (`ocp` lanes per pixel), `sample` its
/// padded input.
///
/// One plain-Rust body, compiled as is and under AVX2: the lanes are
/// independent sums, so vectorising them reorders nothing, and neither
/// build may fuse a multiply-add.
#[allow(clippy::too_many_arguments)]
fn weight_grad_taps(
    sample: &[f32],
    offs: &[usize; TAPS],
    pw: usize,
    h: usize,
    go: &[f32],
    ocp: usize,
    lane0: usize,
    gw: &mut [f32],
) {
    match sfn_par::simd::level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was detected by `level()`; the body is safe code.
        sfn_par::simd::SimdLevel::Avx2 => unsafe {
            weight_grad_taps_avx2(sample, offs, pw, h, go, ocp, lane0, gw)
        },
        _ => weight_grad_taps_body(sample, offs, pw, h, go, ocp, lane0, gw),
    }
}

/// [`weight_grad_taps_body`] compiled for AVX2 (no FMA).
///
/// # Safety
/// AVX2 must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn weight_grad_taps_avx2(
    sample: &[f32],
    offs: &[usize; TAPS],
    pw: usize,
    h: usize,
    go: &[f32],
    ocp: usize,
    lane0: usize,
    gw: &mut [f32],
) {
    weight_grad_taps_body(sample, offs, pw, h, go, ocp, lane0, gw)
}

/// The body of [`weight_grad_taps`]: `TAPS × LANES` accumulators.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn weight_grad_taps_body(
    sample: &[f32],
    offs: &[usize; TAPS],
    pw: usize,
    h: usize,
    go: &[f32],
    ocp: usize,
    lane0: usize,
    gw: &mut [f32],
) {
    let w = go.len() / (h * ocp);
    let mut acc = [[0.0f32; LANES]; TAPS];
    for y in 0..h {
        // Stored one by one, each row keeps its length `w` visible to
        // the compiler, so the loads below need no bounds checks.
        let mut rows = [&sample[..0]; TAPS];
        for (row, &off) in rows.iter_mut().zip(offs) {
            *row = &sample[off + y * pw..][..w];
        }
        let grow = &go[y * w * ocp..][..w * ocp];
        for x in 0..w {
            let g: &[f32; LANES] = grow[x * ocp + lane0..][..LANES].try_into().unwrap();
            for (a, row) in acc.iter_mut().zip(&rows) {
                *a = add_scaled(a, g, row[x]);
            }
        }
    }
    for (gw, a) in gw.chunks_exact_mut(LANES).zip(&acc) {
        for (g, &al) in gw.iter_mut().zip(a) {
            *g += al;
        }
    }
}

/// `a + g·s` per lane.
#[inline(always)]
fn add_scaled(a: &[f32; LANES], g: &[f32; LANES], s: f32) -> [f32; LANES] {
    std::array::from_fn(|l| a[l] + g[l] * s)
}

/// One non-zero filter tap: the offset of its first source element in
/// the padded sample (`ic·ppl + ky·pw + kx`) and its weight.
pub(crate) type Tap = (usize, f32);

/// The non-zero taps of one output channel's `ic·k·k` filter panel in
/// `(ic, ky, kx)` order, for a padded source of row pitch `pw` and
/// plane length `ppl`. Both kernel bodies skip the same zero weights,
/// so their accumulation order matches exactly. A training forward
/// calls this per plane (one allocation, no divisions); the backward's
/// input gradient lists its transposed taps with [`grad_taps`].
pub(crate) fn taps(filter: &[f32], k: usize, pw: usize, ppl: usize) -> Vec<Tap> {
    let mut taps = Vec::with_capacity(filter.len());
    for (ic, panel) in filter.chunks(k * k).enumerate() {
        for (ky, wrow) in panel.chunks(k).enumerate() {
            for (kx, &wv) in wrow.iter().enumerate() {
                if wv != 0.0 {
                    taps.push((ic * ppl + ky * pw + kx, wv));
                }
            }
        }
    }
    taps
}

/// One output plane's share of a direct conv (f32 = 4 bytes), reported
/// by whichever worker runs it. Compulsory traffic: the sample's
/// `input_elems` are charged once (on its first output channel), each
/// plane's own `ic·k·k` filter panel once per plane.
pub(crate) fn record_plane_work(ickk: usize, hw: usize, input_elems: usize) {
    sfn_prof::record_work(2 * (ickk * hw) as u64, ((ickk + input_elems) * 4) as u64, (hw * 4) as u64);
}

/// Where [`direct_plane`] writes an output plane, and what it does to
/// each accumulator on the way: training writes a tight plane with no
/// epilogue, a [`crate::plan::Plan`] writes straight into the padded
/// layout the next conv reads and fuses the skip add and the ReLU.
pub(crate) struct PlaneOut<'a> {
    /// This plane's storage, its row pitch, and where `(0, 0)` lies.
    pub dst: &'a mut [f32],
    pub pitch: usize,
    pub origin: usize,
    /// Residual skip: offset in the source sample of the element added
    /// to output `(0, 0)` (rows at the source pitch).
    pub residual: Option<usize>,
    /// Clamp at zero last.
    pub relu: bool,
}

/// The direct-conv tap kernel for one `h × w` output plane: per
/// element `bias + Σ w·in` over `taps` in order, then `+ residual`,
/// then `max(·, 0.0)` — that order is the bit-identity contract
/// between [`Conv2d::forward`] followed by separate layers and the
/// fused plan. `sample` is the padded source (row pitch `pw`).
///
/// # Panics
/// Panics if a tap, the residual or the destination would reach
/// outside its slice; the vector body relies on these checks.
pub(crate) fn direct_plane(
    sample: &[f32],
    pw: usize,
    h: usize,
    w: usize,
    taps: &[Tap],
    bias: f32,
    out: PlaneOut<'_>,
) {
    if h == 0 || w == 0 {
        return;
    }
    // Last element any row loop touches, relative to its base offset.
    let reach = (h - 1) * pw + w;
    let base = taps.iter().map(|t| t.0).chain(out.residual).max().unwrap_or(0);
    assert!(base + reach <= sample.len(), "conv source extent");
    assert!(out.origin + (h - 1) * out.pitch + w <= out.dst.len(), "conv destination extent");
    match sfn_par::simd::level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 was detected by `level()`, and the two extent
        // assertions above bound every offset the kernel forms.
        sfn_par::simd::SimdLevel::Avx2 => unsafe {
            direct_plane_avx2(sample, pw, h, w, taps, bias, out)
        },
        _ => direct_plane_scalar(sample, pw, h, 0..w, taps, bias, out),
    }
}

/// Scalar body of [`direct_plane`], over the columns `cols` of every
/// row (all of them, or what the vector body's 8-wide blocks left).
fn direct_plane_scalar(
    sample: &[f32],
    pw: usize,
    h: usize,
    cols: std::ops::Range<usize>,
    taps: &[Tap],
    bias: f32,
    out: PlaneOut<'_>,
) {
    for y in 0..h {
        let row = y * pw;
        let orow = &mut out.dst[out.origin + y * out.pitch..][cols.clone()];
        for (x, o) in cols.clone().zip(orow) {
            let mut acc = bias;
            for &(off, wv) in taps {
                acc += wv * sample[off + row + x];
            }
            if let Some(r) = out.residual {
                acc += sample[r + row + x];
            }
            *o = if out.relu { acc.max(0.0) } else { acc };
        }
    }
}

/// AVX2 body of [`direct_plane`]: a 32-wide (4×ymm) register block of
/// accumulators per row chunk; every tap is one broadcast + 4
/// load/mul/add, the epilogue runs on the registers and the output row
/// is stored exactly once. Plain mul+add in the scalar tap order (and
/// `max` with zero as the second operand, so NaN and `-0.0` clamp to
/// `+0.0` like `f32::max`) keeps it bit-identical to
/// [`direct_plane_scalar`], which also finishes each row's last
/// `w % 8` columns.
///
/// # Safety
/// AVX2 must be available, and [`direct_plane`]'s two extent
/// assertions must hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn direct_plane_avx2(
    sample: &[f32],
    pw: usize,
    h: usize,
    w: usize,
    taps: &[Tap],
    bias: f32,
    out: PlaneOut<'_>,
) {
    use std::arch::x86_64::*;
    let sp = sample.as_ptr();
    let zero = _mm256_setzero_ps();
    for y in 0..h {
        let row = y * pw;
        let op = out.dst.as_mut_ptr().add(out.origin + y * out.pitch);
        // Skip-connection row, or any valid pointer when unused.
        let rp = sp.add(out.residual.unwrap_or(0) + row);
        let finish = |acc: __m256, x: usize| {
            debug_assert!(x + 8 <= w);
            let acc = match out.residual {
                Some(_) => _mm256_add_ps(acc, _mm256_loadu_ps(rp.add(x))),
                None => acc,
            };
            let acc = if out.relu { _mm256_max_ps(acc, zero) } else { acc };
            _mm256_storeu_ps(op.add(x), acc);
        };
        let mut x = 0;
        while x + 32 <= w {
            let mut a0 = _mm256_set1_ps(bias);
            let mut a1 = a0;
            let mut a2 = a0;
            let mut a3 = a0;
            for &(off, wv) in taps {
                let s = sp.add(off + row + x);
                let wv8 = _mm256_set1_ps(wv);
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(wv8, _mm256_loadu_ps(s)));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(wv8, _mm256_loadu_ps(s.add(8))));
                a2 = _mm256_add_ps(a2, _mm256_mul_ps(wv8, _mm256_loadu_ps(s.add(16))));
                a3 = _mm256_add_ps(a3, _mm256_mul_ps(wv8, _mm256_loadu_ps(s.add(24))));
            }
            finish(a0, x);
            finish(a1, x + 8);
            finish(a2, x + 16);
            finish(a3, x + 24);
            x += 32;
        }
        while x + 8 <= w {
            let mut a0 = _mm256_set1_ps(bias);
            for &(off, wv) in taps {
                let s = _mm256_loadu_ps(sp.add(off + row + x));
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_set1_ps(wv), s));
            }
            finish(a0, x);
            x += 8;
        }
    }
    direct_plane_scalar(sample, pw, h, w / 8 * 8..w, taps, bias, out);
}

/// Kernel name of the direct path in the roofline report, for
/// [`Conv2d`] and the [`crate::plan::Plan`] convs alike.
pub(crate) const DIRECT_KERNEL: &str = "conv2d.direct";

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, training: bool) -> Tensor {
        let (n, c, h, w) = input.shape();
        assert_eq!(c, self.in_ch, "conv input channels");
        // Worker threads report their shares via `record_work`; the
        // scope merges them at exit. Only the residual add (done here on
        // the caller thread) is recorded directly.
        let scope = sfn_prof::KernelScope::enter(DIRECT_KERNEL);
        let mut out = Tensor::zeros(n, self.out_ch, h, w);
        self.forward_direct(input, &mut out);
        if self.residual {
            out.add_scaled(input, 1.0);
            if scope.active() {
                let elems = (n * self.out_ch * h * w) as u64;
                scope.record(elems, 2 * elems * 4, elems * 4);
            }
        }
        // `scratch` now holds this input padded: the backward's cache
        // after a training forward, nothing to differentiate after an
        // inference one.
        self.cached_shape = training.then_some((n, h, w));
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (n, h, w) = self.cached_shape.expect("backward before forward");
        assert_eq!(grad_out.shape(), (n, self.out_ch, h, w), "grad shape");
        let k = self.kernel;
        let pw = crate::arena::padded_pitch(w + 2 * (k / 2));
        // Each gradient costs the forward's 2·n·oc·ic·k²·h·w flops.
        let est_ns = super::est_ns(2 * n * self.out_ch * self.in_ch * k * k * h * w, true);
        self.weight_grads(grad_out, pw, est_ns);
        self.input_grad(grad_out, pw, est_ns)
    }

    fn params(&mut self) -> Vec<ParamView<'_>> {
        vec![
            ParamView {
                values: &mut self.weight,
                grads: &mut self.grad_weight,
            },
            ParamView {
                values: &mut self.bias,
                grads: &mut self.grad_bias,
            },
        ]
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Conv2d {
            in_ch: self.in_ch,
            out_ch: self.out_ch,
            kernel: self.kernel,
            residual: self.residual,
        }
    }

    fn flops(&self, input: (usize, usize, usize)) -> u64 {
        let (_, h, w) = input;
        let macs = (self.out_ch * self.in_ch * self.kernel * self.kernel * h * w) as u64;
        2 * macs + if self.residual { (self.out_ch * h * w) as u64 } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng_from_seed;

    /// Naive reference convolution for cross-checking.
    fn conv_ref(input: &Tensor, layer: &Conv2d) -> Tensor {
        let (n, c, h, w) = input.shape();
        let k = layer.kernel;
        let pad = (k / 2) as isize;
        let mut out = Tensor::zeros(n, layer.out_ch, h, w);
        for nn in 0..n {
            for oc in 0..layer.out_ch {
                for y in 0..h {
                    for x in 0..w {
                        let mut acc = layer.bias[oc];
                        for ic in 0..c {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy = y as isize + ky as isize - pad;
                                    let ix = x as isize + kx as isize - pad;
                                    if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w
                                    {
                                        acc += layer.w_at(oc, ic, ky, kx)
                                            * input.at(nn, ic, iy as usize, ix as usize);
                                    }
                                }
                            }
                        }
                        if layer.residual {
                            acc += input.at(nn, oc, y, x);
                        }
                        out.set(nn, oc, y, x, acc);
                    }
                }
            }
        }
        out
    }

    /// The scalar backward the vector one must match bit for bit:
    /// index-checked loops over the unpadded tensors, skipping every
    /// out-of-range term. Returns `(grad_in, grad_weight, grad_bias)`.
    fn backward_ref(layer: &Conv2d, input: &Tensor, grad_out: &Tensor) -> (Tensor, Vec<f32>, Vec<f32>) {
        let (n, _, h, w) = input.shape();
        let k = layer.kernel;
        let pad = k / 2;
        let kk = k * k;
        let (in_ch, out_ch) = (layer.in_ch, layer.out_ch);
        let mut grad_weight = vec![0.0f32; out_ch * in_ch * kk];
        let mut grad_bias = vec![0.0f32; out_ch];
        for (oc, (gw, gb)) in grad_weight.chunks_mut(in_ch * kk).zip(&mut grad_bias).enumerate() {
            for nn in 0..n {
                let go = grad_out.plane(nn, oc);
                for &g in go.iter() {
                    *gb += g;
                }
                for ic in 0..in_ch {
                    let ip = input.plane(nn, ic);
                    for ky in 0..k {
                        let dy = ky as isize - pad as isize;
                        for kx in 0..k {
                            let dx = kx as isize - pad as isize;
                            let y0 = (-dy).max(0) as usize;
                            let y1 = (h as isize - dy).clamp(0, h as isize) as usize;
                            let x0 = (-dx).max(0) as usize;
                            let x1 = (w as isize - dx).clamp(0, w as isize) as usize;
                            let mut acc = 0.0f32;
                            for y in y0..y1 {
                                let iy = (y as isize + dy) as usize;
                                for x in x0..x1 {
                                    let ix = (x as isize + dx) as usize;
                                    acc += go[y * w + x] * ip[iy * w + ix];
                                }
                            }
                            gw[ic * kk + ky * k + kx] += acc;
                        }
                    }
                }
            }
        }
        // Input gradient: full correlation with flipped kernels.
        let mut grad_in = Tensor::zeros(n, in_ch, h, w);
        for nn in 0..n {
            for ic in 0..in_ch {
                let mut gi_plane = vec![0.0f32; h * w];
                for oc in 0..out_ch {
                    let go = grad_out.plane(nn, oc);
                    for ky in 0..k {
                        let dy = ky as isize - pad as isize;
                        for kx in 0..k {
                            let dx = kx as isize - pad as isize;
                            let wv = layer.w_at(oc, ic, ky, kx);
                            if wv == 0.0 {
                                continue;
                            }
                            // grad_in[y][x] += w * grad_out[y-dy][x-dx]
                            let y0 = dy.max(0) as usize;
                            let y1 = (h as isize + dy).clamp(0, h as isize) as usize;
                            let x0 = dx.max(0) as usize;
                            let x1 = (w as isize + dx).clamp(0, w as isize) as usize;
                            for y in y0..y1 {
                                let gy = (y as isize - dy) as usize;
                                for x in x0..x1 {
                                    let gx = (x as isize - dx) as usize;
                                    gi_plane[y * w + x] += wv * go[gy * w + gx];
                                }
                            }
                        }
                    }
                }
                for (y, row) in gi_plane.chunks(w).enumerate() {
                    for (x, &v) in row.iter().enumerate() {
                        grad_in.set(nn, ic, y, x, v);
                    }
                }
            }
        }
        if layer.residual {
            grad_in.add_scaled(grad_out, 1.0);
        }
        (grad_in, grad_weight, grad_bias)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn backward_matches_scalar_reference_bit_for_bit() {
        // k = 1, 3, 5; w covers the direct kernel's scalar tail, its
        // 8-wide loop and its 32-wide block; 11 output channels cover
        // a full and a partial weight-gradient lane block.
        let mut case = 0u64;
        for k in [1, 3, 5] {
            for residual in [false, true] {
                let (in_ch, out_ch) = if residual { (3, 3) } else { (2, 11) };
                for w in [1, 7, 8, 12, 24, 33] {
                    for n in [1, 3] {
                        for zeroed in [false, true] {
                            case += 1;
                            let mut layer = Conv2d::new(in_ch, out_ch, k, residual, &mut rng_from_seed(case));
                            if zeroed {
                                // Every third weight, and all of input channel 0's.
                                for (i, wv) in layer.weight.iter_mut().enumerate() {
                                    if i % 3 == 0 || (i / (k * k)) % in_ch == 0 {
                                        *wv = 0.0;
                                    }
                                }
                            }
                            let h = 5;
                            let input = Tensor::from_fn(n, in_ch, h, w, |s, c, y, x| {
                                ((s * 31 + c * 17 + y * 7 + x * 3) % 23) as f32 / 7.0 - 1.5
                            });
                            let grad_out = Tensor::from_fn(n, out_ch, h, w, |s, c, y, x| {
                                ((s * 13 + c * 29 + y * 11 + x * 5) % 19) as f32 / 5.0 - 1.8
                            });
                            let _ = layer.forward(&input, true);
                            let grad_in = layer.backward(&grad_out);
                            let (want_in, want_w, want_b) = backward_ref(&layer, &input, &grad_out);
                            let at = format!("k={k} residual={residual} w={w} n={n} zeroed={zeroed}");
                            assert_eq!(bits(grad_in.data()), bits(want_in.data()), "grad_in, {at}");
                            assert_eq!(bits(&layer.grad_weight), bits(&want_w), "grad_weight, {at}");
                            assert_eq!(bits(&layer.grad_bias), bits(&want_b), "grad_bias, {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_needs_a_training_forward() {
        let mut layer = Conv2d::new(1, 1, 3, false, &mut rng_from_seed(8));
        let input = Tensor::zeros(1, 1, 4, 4);
        let _ = layer.forward(&input, true);
        let _ = layer.forward(&input, false);
        let _ = layer.backward(&input);
    }

    #[test]
    fn forward_matches_naive_reference() {
        let mut rng = rng_from_seed(1);
        let mut layer = Conv2d::new(3, 4, 3, false, &mut rng);
        let input = Tensor::from_fn(2, 3, 7, 6, |n, c, h, w| {
            ((n * 37 + c * 17 + h * 5 + w * 3) % 13) as f32 / 6.0 - 1.0
        });
        let fast = layer.forward(&input, false);
        let slow = conv_ref(&input, &layer);
        for (a, b) in fast.data().iter().zip(slow.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let mut rng = rng_from_seed(2);
        let mut layer = Conv2d::new(1, 1, 3, false, &mut rng);
        layer.weight.fill(0.0);
        layer.weight[4] = 1.0; // centre tap
        let input = Tensor::from_fn(1, 1, 5, 5, |_, _, h, w| (h * 5 + w) as f32);
        let out = layer.forward(&input, false);
        for (a, b) in out.data().iter().zip(input.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn residual_adds_input() {
        let mut rng = rng_from_seed(3);
        let mut layer = Conv2d::new(2, 2, 3, true, &mut rng);
        layer.weight.fill(0.0);
        layer.bias.fill(0.0);
        let input = Tensor::from_fn(1, 2, 4, 4, |_, c, h, w| (c * 16 + h * 4 + w) as f32);
        let out = layer.forward(&input, false);
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = rng_from_seed(4);
        let mut layer = Conv2d::new(2, 3, 3, false, &mut rng);
        let input = Tensor::from_fn(1, 2, 5, 5, |_, c, h, w| {
            ((c * 11 + h * 3 + w * 7) % 9) as f32 / 4.0 - 1.0
        });
        // Loss = 0.5 Σ out² -> dL/dout = out.
        let out = layer.forward(&input, true);
        let grad_in = layer.backward(&out);

        let loss = |layer: &mut Conv2d, input: &Tensor| -> f64 {
            let o = layer.forward(input, true);
            o.data().iter().map(|&v| 0.5 * (v as f64) * (v as f64)).sum()
        };

        // Check a sample of weight gradients.
        let eps = 1e-2f32;
        let saved_gw = layer.grad_weight.clone();
        for &wi in &[0usize, 7, 13, 25, 40, 53] {
            let orig = layer.weight[wi];
            layer.weight[wi] = orig + eps;
            let lp = loss(&mut layer, &input);
            layer.weight[wi] = orig - eps;
            let lm = loss(&mut layer, &input);
            layer.weight[wi] = orig;
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let an = saved_gw[wi];
            assert!(
                (fd - an).abs() <= 1e-2 * fd.abs().max(an.abs()).max(1e-1),
                "weight {wi}: fd {fd} vs analytic {an}"
            );
        }
        // Check a sample of input gradients.
        let mut input_m = input.clone();
        for &ii in &[0usize, 12, 24, 37, 49] {
            let orig = input_m.data()[ii];
            input_m.data_mut()[ii] = orig + eps;
            let lp = loss(&mut layer, &input_m);
            input_m.data_mut()[ii] = orig - eps;
            let lm = loss(&mut layer, &input_m);
            input_m.data_mut()[ii] = orig;
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let an = grad_in.data()[ii];
            assert!(
                (fd - an).abs() <= 2e-2 * fd.abs().max(an.abs()).max(1e-1),
                "input {ii}: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn residual_gradient_passthrough() {
        let mut rng = rng_from_seed(5);
        let mut layer = Conv2d::new(2, 2, 3, true, &mut rng);
        layer.weight.fill(0.0);
        layer.bias.fill(0.0);
        let input = Tensor::from_fn(1, 2, 4, 4, |_, c, h, w| (c + h + w) as f32 * 0.1);
        let _ = layer.forward(&input, true);
        let grad_out = Tensor::from_fn(1, 2, 4, 4, |_, c, h, w| (c * 16 + h * 4 + w) as f32);
        let grad_in = layer.backward(&grad_out);
        // With zero weights the only path is the skip: grad_in == grad_out.
        assert_eq!(grad_in.data(), grad_out.data());
    }

    #[test]
    fn flops_formula() {
        let mut rng = rng_from_seed(6);
        let layer = Conv2d::new(4, 8, 3, false, &mut rng);
        // 2 * 8*4*9 * 16*16 = 147456
        assert_eq!(layer.flops((4, 16, 16)), 2 * 8 * 4 * 9 * 256);
    }

    #[test]
    fn batch_independence() {
        // Forward of a batch equals per-sample forwards.
        let mut rng = rng_from_seed(7);
        let mut layer = Conv2d::new(2, 3, 5, false, &mut rng);
        let batch = Tensor::from_fn(3, 2, 6, 6, |n, c, h, w| {
            ((n * 31 + c * 7 + h * 3 + w) % 11) as f32 - 5.0
        });
        let full = layer.forward(&batch, false);
        for s in 0..3 {
            let single = layer.forward(&batch.sample(s), false);
            for (a, b) in full.sample(s).data().iter().zip(single.data()) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }
}
