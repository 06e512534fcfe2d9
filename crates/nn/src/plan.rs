//! Compiled inference: one [`Plan`] per (model, input shape).
//!
//! [`crate::Network`] is the training object: it owns the weights and
//! their gradients, every layer returns a fresh tensor and caches what
//! its backward pass needs. A simulation step needs none of that, so
//! inference compiles the model once per geometry instead:
//!
//! * **Weights** stay with the caller (a `SavedModel`'s spec and
//!   tensors); the plan keeps only what its kernel reads — a tap list
//!   per output channel — and is rebuilt when the input shape changes.
//! * **Activations live padded.** Every op owns one output buffer,
//!   allocated once, already in the layout the *next* op reads: a zero
//!   halo of the consumer conv's `k/2` at row pitch [`padded_pitch`].
//!   The halo is zeroed at build and never written, so no conv copies
//!   its input and [`Plan::run`] allocates nothing.
//! * **Epilogues are fused in a fixed order.** A conv's bias, its
//!   residual add and a directly following `ReLU` run on the
//!   accumulator before it is stored: `bias + Σ w·x` over the non-zero
//!   taps in `(ic, ky, kx)` order, then `+ input`, then `max(·, 0.0)` —
//!   the operations, in the order, that `Network::predict` performs as
//!   separate passes. That order is the bit-identity contract:
//!   `Network::predict` is the plan's test oracle and every output
//!   element must match it `to_bits`-exactly.
//!
//! Pooling, upsampling and stand-alone activations are row loops over
//! buffer interiors; `Dropout` (the identity at inference) compiles to
//! nothing. **Not planned:** `Dense` — a pressure surrogate is fully
//! convolutional, so a spec containing one is a typed [`SpecError`] —
//! batches (a plan runs one sample), and anything about training.

use crate::arena::{padded_pitch, AlignedBuf};
use crate::layers::activation::{relu, sigmoid};
use crate::layers::conv::{self, PlaneOut, Tap};
use crate::spec::{LayerSpec, NetworkSpec, SpecError};

type Shape = (usize, usize, usize);

/// One activation: `c` planes of `h × w` inside a zero halo of `pad`
/// cells, rows at pitch `pw`, planes `ppl = (h + 2·pad)·pw` apart.
struct Act {
    c: usize,
    h: usize,
    w: usize,
    pad: usize,
    pw: usize,
    ppl: usize,
    buf: AlignedBuf,
}

impl Act {
    /// A `shape` buffer in the layout a conv of `kernel` reads.
    fn new((c, h, w): Shape, kernel: usize) -> Self {
        let (pad, pw) = halo_pitch(kernel, w);
        let ppl = (h + 2 * pad) * pw;
        Self { c, h, w, pad, pw, ppl, buf: AlignedBuf::zeroed(c * ppl) }
    }

    /// Offset of interior element `(0, 0)` within a plane.
    fn origin(&self) -> usize {
        self.pad * self.pw + self.pad
    }

    fn row(&self, c: usize, y: usize) -> &[f32] {
        &self.buf[c * self.ppl + self.origin() + y * self.pw..][..self.w]
    }

    fn row_mut(&mut self, c: usize, y: usize) -> &mut [f32] {
        let at = c * self.ppl + self.origin() + y * self.pw;
        &mut self.buf[at..][..self.w]
    }
}

/// `(halo, row pitch)` of the buffer a conv of `kernel` reads `w`-wide
/// rows from.
fn halo_pitch(kernel: usize, w: usize) -> (usize, usize) {
    (kernel / 2, padded_pitch(w + 2 * (kernel / 2)))
}

struct ConvOp {
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    residual: bool,
    /// A directly following `ReLU`, fused.
    relu: bool,
    bias: Vec<f32>,
    /// The non-zero taps of each output channel.
    taps: Vec<Vec<Tap>>,
}

enum Op {
    Conv(ConvOp),
    MaxPool(usize),
    AvgPool(usize),
    Upsample(usize),
    /// A stand-alone activation.
    Map(fn(f32) -> f32),
}

/// A model compiled for one input shape; see the [module docs](self).
pub struct Plan {
    ops: Vec<Op>,
    /// `acts[0]` is the input, `acts[i + 1]` the output of `ops[i]`.
    acts: Vec<Act>,
}

/// The one walk over a model: every check, and with a `grid` the ops
/// and the shape each produces. Without one only what no grid changes
/// is checked (see [`check_model`]), and no taps are built.
fn walk(
    spec: &NetworkSpec,
    weights: &[Vec<f32>],
    in_ch: usize,
    grid: Option<(usize, usize)>,
) -> Result<(Vec<Op>, Vec<Shape>), SpecError> {
    // Convs check alike at any size: 1×1 stands in for no grid.
    let (h, w) = grid.unwrap_or((1, 1));
    let mut shapes = vec![(in_ch, h, w)];
    let mut ops = Vec::new();
    let mut tensors = weights.iter();
    let inference = |l: &(usize, &LayerSpec)| !matches!(l.1, LayerSpec::Dropout { .. });
    let mut layers = spec.layers.iter().enumerate().filter(inference).peekable();
    while let Some((idx, layer)) = layers.next() {
        let at = |e: String| SpecError(format!("layer {idx} ({}): {e}", layer.tag()));
        let shape @ (_, h, w) = *shapes.last().expect("starts non-empty");
        if matches!(layer, LayerSpec::Dense { .. }) {
            return Err(at("a pressure surrogate is fully convolutional; dense layers cannot be planned".into()));
        }
        let sized = grid.is_some() || matches!(layer, LayerSpec::Conv2d { .. });
        shapes.push(if sized { layer.output_shape(shape).map_err(|e| at(e.0))? } else { shape });
        ops.push(match *layer {
            LayerSpec::Conv2d { in_ch, out_ch, kernel, residual } => {
                let relu = layers.next_if(|l| matches!(l.1, LayerSpec::ReLU)).is_some();
                // Snapshots come from files: no unchecked arithmetic on
                // their dimensions until real tensor lengths bound them.
                let len = [kernel, kernel, out_ch].iter().try_fold(in_ch, |n, &d| n.checked_mul(d));
                let mut tensor = |want: Option<usize>| match tensors.next() {
                    Some(t) if Some(t.len()) == want => Ok(t),
                    t => Err(at(format!("parameter tensor {:?}, expected {want:?}", t.map(Vec::len)))),
                };
                let filter = tensor(len)?;
                let bias = tensor(Some(out_ch))?.clone();
                let (pad, pw) = halo_pitch(kernel, w);
                let taps = |f| conv::taps(f, kernel, pw, (h + 2 * pad) * pw);
                let taps = grid.map(|_| filter.chunks(in_ch * kernel * kernel).map(taps).collect());
                Op::Conv(ConvOp { in_ch, out_ch, kernel, residual, relu, bias, taps: taps.unwrap_or_default() })
            }
            LayerSpec::ReLU => Op::Map(relu),
            LayerSpec::Sigmoid => Op::Map(sigmoid),
            LayerSpec::Tanh => Op::Map(f32::tanh),
            LayerSpec::MaxPool { size } => Op::MaxPool(size),
            LayerSpec::AvgPool { size } => Op::AvgPool(size),
            LayerSpec::Upsample { factor } => Op::Upsample(factor),
            LayerSpec::Dense { .. } | LayerSpec::Dropout { .. } => unreachable!("rejected / filtered above"),
        });
    }
    match tensors.count() {
        0 => Ok((ops, shapes)),
        extra => Err(SpecError(format!("snapshot has {extra} unused parameter tensors"))),
    }
}

/// Checks what no grid changes about a model, for a loader to reject a
/// malformed snapshot early: no `Dense` layer, every conv well-formed
/// (odd kernel, residual only with equal channels), chained from
/// `in_ch` channels and given one weight and one bias tensor of the
/// right length. A pool too large for some grid is [`Plan::new`]'s.
pub fn check_model(spec: &NetworkSpec, weights: &[Vec<f32>], in_ch: usize) -> Result<(), SpecError> {
    walk(spec, weights, in_ch, None).map(drop)
}

impl Plan {
    /// Compiles `spec` with `weights` (per-layer parameter tensors in
    /// `SavedModel::weights` order) for one `(c, h, w)` input.
    ///
    /// Everything [`check_model`] rejects is an error here too, as is
    /// a shape the spec cannot process (a pool larger than its input).
    pub fn new(spec: &NetworkSpec, weights: &[Vec<f32>], (c, h, w): Shape) -> Result<Self, SpecError> {
        if h == 0 || w == 0 {
            return Err(SpecError(format!("empty input {h}x{w}")));
        }
        let (ops, shapes) = walk(spec, weights, c, Some((h, w)))?;
        // Each buffer in the layout its consumer reads; anything but a
        // conv reads like a 1×1 one.
        let kernel = |i| match ops.get(i) {
            Some(Op::Conv(c)) => c.kernel,
            _ => 1,
        };
        let acts = shapes.iter().enumerate().map(|(i, &shape)| Act::new(shape, kernel(i))).collect();
        Ok(Self { ops, acts })
    }

    /// Output shape `(c, h, w)`.
    pub fn output_shape(&self) -> Shape {
        let a = self.acts.last().expect("input buffer");
        (a.c, a.h, a.w)
    }

    /// Row `y` of input channel `c`, for the caller to fill. Rows keep
    /// their contents between runs, so a channel that does not change
    /// (a geometry mask) is written once.
    pub fn input_row_mut(&mut self, c: usize, y: usize) -> &mut [f32] {
        self.acts[0].row_mut(c, y)
    }

    /// Row `y` of output channel `c` as of the last [`Plan::run`].
    pub fn output_row(&self, c: usize, y: usize) -> &[f32] {
        self.acts.last().expect("input buffer").row(c, y)
    }

    /// One forward pass from the input rows to the output rows.
    /// Performs no heap allocation.
    pub fn run(&mut self) {
        for (i, op) in self.ops.iter().enumerate() {
            let (src, dst) = self.acts.split_at_mut(i + 1);
            let (src, dst) = (&src[i], &mut dst[0]);
            match op {
                Op::Conv(c) => c.run(src, dst),
                // Strict `>` from -inf: `MaxPool`'s tie and NaN behaviour.
                Op::MaxPool(s) => {
                    let keep_max = |best, v| if v > best { v } else { best };
                    pool(src, dst, *s, f32::NEG_INFINITY, keep_max, 1.0)
                }
                Op::AvgPool(s) => pool(src, dst, *s, 0.0, |acc, v| acc + v, 1.0 / (*s * *s) as f32),
                Op::Upsample(f) => upsample(src, dst, *f),
                Op::Map(f) => {
                    for r in 0..src.c * src.h {
                        let (c, y) = (r / src.h, r % src.h);
                        for (o, &v) in dst.row_mut(c, y).iter_mut().zip(src.row(c, y)) {
                            *o = f(v);
                        }
                    }
                }
            }
        }
    }
}

/// `dst(c, oy, ox) = scale · fold(init, step)` over the `s × s` source
/// window in row-major order, a whole output row at a time.
fn pool(src: &Act, dst: &mut Act, s: usize, init: f32, step: impl Fn(f32, f32) -> f32, scale: f32) {
    for r in 0..dst.c * dst.h {
        let (c, oy) = (r / dst.h, r % dst.h);
        let out = dst.row_mut(c, oy);
        out.fill(init);
        for dy in 0..s {
            for (o, window) in out.iter_mut().zip(src.row(c, oy * s + dy).chunks_exact(s)) {
                *o = window.iter().fold(*o, |acc, &v| step(acc, v));
            }
        }
        if scale != 1.0 {
            out.iter_mut().for_each(|o| *o *= scale);
        }
    }
}

/// Nearest-neighbour upsampling: each source row is stretched once and
/// copied to the `f - 1` rows below it.
fn upsample(src: &Act, dst: &mut Act, f: usize) {
    for r in 0..src.c * src.h {
        let (c, y) = (r / src.h, r % src.h);
        for (cells, &v) in dst.row_mut(c, y * f).chunks_mut(f).zip(src.row(c, y)) {
            cells.fill(v);
        }
        let at = c * dst.ppl + dst.origin() + y * f * dst.pw;
        for dy in 1..f {
            dst.buf.copy_within(at..at + dst.w, at + dy * dst.pw);
        }
    }
}

impl ConvOp {
    fn run(&self, src: &Act, dst: &mut Act) {
        let (h, w, hw) = (src.h, src.w, src.h * src.w);
        let ickk = self.in_ch * self.kernel * self.kernel;
        // Same scope name and work model as `Conv2d::forward`, so the
        // kernel tables of a planned and an unplanned model compare.
        let scope = sfn_prof::KernelScope::enter(conv::DIRECT_KERNEL);
        let (pitch, origin) = (dst.pw, dst.origin());
        let residual = |oc: usize| self.residual.then(|| oc * src.ppl + src.origin());
        let est_ns = crate::layers::est_ns(2 * ickk * hw * self.out_ch, true);
        sfn_par::for_each_chunk_mut(&mut dst.buf[..], dst.ppl, est_ns, |oc, plane| {
            conv::record_plane_work(ickk, hw, if oc == 0 { self.in_ch * hw } else { 0 });
            let out = PlaneOut { dst: plane, pitch, origin, residual: residual(oc), relu: self.relu };
            conv::direct_plane(&src.buf, src.pw, h, w, &self.taps[oc], self.bias[oc], out);
        });
        if self.residual && scope.active() {
            let elems = (self.out_ch * hw) as u64;
            scope.record(elems, 2 * elems * 4, elems * 4);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::tensor::Tensor;

    /// Every op kind once: fused and stand-alone activations, both
    /// pools, a residual conv, dropout, a 5×5 and a 1×1 kernel.
    fn mixed_spec() -> NetworkSpec {
        use LayerSpec::*;
        NetworkSpec::new(vec![
            Conv2d { in_ch: 2, out_ch: 4, kernel: 5, residual: false },
            ReLU,
            MaxPool { size: 2 },
            ReLU,
            Conv2d { in_ch: 4, out_ch: 4, kernel: 3, residual: true },
            Tanh,
            Dropout { p: 0.3 },
            AvgPool { size: 2 },
            Conv2d { in_ch: 4, out_ch: 4, kernel: 3, residual: true },
            ReLU,
            Sigmoid,
            Upsample { factor: 4 },
            Conv2d { in_ch: 4, out_ch: 1, kernel: 1, residual: false },
        ])
    }

    /// Feeds `input` to a plan of `net` and returns the output planes
    /// flattened like a tensor.
    fn run_plan(net: &mut Network, input: &Tensor) -> Vec<f32> {
        let saved = net.save();
        let (_, c, h, w) = input.shape();
        let mut plan = Plan::new(&saved.spec, &saved.weights, (c, h, w)).unwrap();
        let mut out = Vec::new();
        // Twice: a stale buffer from the first run must not show.
        for _ in 0..2 {
            for ch in 0..c {
                for y in 0..h {
                    plan.input_row_mut(ch, y).copy_from_slice(&input.plane(0, ch)[y * w..][..w]);
                }
            }
            plan.run();
            let (oc, oh, _) = plan.output_shape();
            out = (0..oc * oh).flat_map(|r| plan.output_row(r / oh, r % oh).to_vec()).collect();
        }
        out
    }

    #[test]
    fn matches_network_predict_bit_for_bit() {
        let mut net = Network::from_spec(&mixed_spec(), 5).unwrap();
        for p in net.params() {
            // Non-zero biases and a few exactly-zero weights.
            for (i, v) in p.values.iter_mut().enumerate() {
                *v = if i % 7 == 3 { 0.0 } else { *v + 0.01 };
            }
        }
        for (h, w) in [(8, 8), (12, 44), (33, 9), (40, 72)] {
            let input = Tensor::from_fn(1, 2, h, w, |_, c, y, x| match (c * 31 + y * 7 + x * 3) % 11 {
                0 => -0.0,
                v => v as f32 / 5.0 - 1.0,
            });
            let want = net.predict(&input);
            let got = run_plan(&mut net, &input);
            assert_eq!(want.len(), got.len());
            for (i, (a, b)) in want.data().iter().zip(&got).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{h}x{w} element {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn malformed_models_are_typed_errors() {
        let mut net = Network::from_spec(&mixed_spec(), 1).unwrap();
        let saved = net.save();
        let plan = |spec: &NetworkSpec, weights: &[Vec<f32>], shape| {
            Plan::new(spec, weights, shape).map(|_| ()).unwrap_err().0
        };
        let mut short = saved.weights.clone();
        short.pop();
        assert!(plan(&saved.spec, &short, (2, 8, 8)).contains("tensor None"));
        let mut long = saved.weights.clone();
        long.push(vec![0.0]);
        assert!(plan(&saved.spec, &long, (2, 8, 8)).contains("unused parameter tensors"));
        let mut wrong = saved.weights.clone();
        wrong[2].pop();
        assert!(plan(&saved.spec, &wrong, (2, 8, 8)).contains("tensor Some("));
        let huge = LayerSpec::Conv2d { in_ch: 2, out_ch: usize::MAX / 2, kernel: 3, residual: false };
        assert!(check_model(&NetworkSpec::new(vec![huge]), &[vec![], vec![]], 2).is_err());
        assert!(plan(&saved.spec, &saved.weights, (3, 8, 8)).contains("input channels"));
        // Only this grid is wrong: 1x1 after the first pool cannot be pooled again.
        assert!(plan(&saved.spec, &saved.weights, (2, 3, 3)).contains("cannot pool"));
        let dense = NetworkSpec::new(vec![LayerSpec::Dense { inputs: 8, outputs: 2 }]);
        assert!(plan(&dense, &[], (2, 2, 2)).contains("dense"));
        for bad in [
            LayerSpec::Conv2d { in_ch: 2, out_ch: 2, kernel: 4, residual: false },
            LayerSpec::Conv2d { in_ch: 2, out_ch: 3, kernel: 3, residual: true },
        ] {
            assert!(check_model(&NetworkSpec::new(vec![bad]), &[], 2).is_err());
        }
    }
}
