//! Pooling and unpooling layers.
//!
//! §4 Operation 3 down-samples layers with max or average pooling
//! ("a special case of m is a 2×2 matrix which can discard 75% neurons
//! in the intermediate layers"); nearest-neighbour upsampling is the
//! matching "unpooling" that restores the spatial resolution so the
//! surrogate's output keeps the grid shape.

use crate::layers::{Layer, ParamView};
use crate::spec::LayerSpec;
use crate::tensor::Tensor;

/// Max pooling with a square window and equal stride.
pub struct MaxPool {
    size: usize,
    /// Flat input index of each output's argmax, for backward routing.
    argmax: Vec<usize>,
    in_shape: (usize, usize, usize, usize),
}

impl MaxPool {
    /// Creates a max-pool layer with window/stride `size ≥ 2`.
    pub fn new(size: usize) -> Self {
        assert!(size >= 2, "pool size must be >= 2");
        Self {
            size,
            argmax: Vec::new(),
            in_shape: (0, 0, 0, 0),
        }
    }
}

impl Layer for MaxPool {
    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        let (n, c, h, w) = input.shape();
        let s = self.size;
        assert!(h >= s && w >= s, "input {h}x{w} smaller than pool {s}");
        let (oh, ow) = (h / s, w / s);
        let mut out = Tensor::zeros(n, c, oh, ow);
        self.argmax.clear();
        self.argmax.resize(n * c * oh * ow, 0);
        self.in_shape = (n, c, h, w);
        // Per window: a strict `>` from −∞ in (dy, dx) order, so the
        // first maximum wins and an all-NaN window keeps −∞ and index 0.
        let planes = out.data_mut().chunks_exact_mut(oh * ow).zip(self.argmax.chunks_exact_mut(oh * ow));
        for (p, (out, argmax)) in planes.enumerate() {
            let plane = &input.data()[p * h * w..][..h * w];
            for (oy, (out, argmax)) in out.chunks_exact_mut(ow).zip(argmax.chunks_exact_mut(ow)).enumerate() {
                let rows = &plane[oy * s * w..][..s * w];
                // Flat input index of this window row's first element.
                let first = p * h * w + oy * s * w;
                for (ox, (o, a)) in out.iter_mut().zip(argmax).enumerate() {
                    let (mut best, mut best_idx) = (f32::NEG_INFINITY, 0);
                    for (dy, row) in rows.chunks_exact(w).enumerate() {
                        for (dx, &v) in row[ox * s..][..s].iter().enumerate() {
                            let better = v > best;
                            best = if better { v } else { best };
                            best_idx = if better { first + dy * w + ox * s + dx } else { best_idx };
                        }
                    }
                    *o = best;
                    *a = best_idx;
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (n, c, h, w) = self.in_shape;
        assert!(n > 0, "backward before forward");
        let mut grad_in = Tensor::zeros(n, c, h, w);
        for (o, &src) in self.argmax.iter().enumerate() {
            grad_in.data_mut()[src] += grad_out.data()[o];
        }
        grad_in
    }

    fn params(&mut self) -> Vec<ParamView<'_>> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::MaxPool { size: self.size }
    }

    fn flops(&self, input: (usize, usize, usize)) -> u64 {
        let (c, h, w) = input;
        (c * h * w) as u64
    }
}

/// Average pooling with a square window and equal stride.
pub struct AvgPool {
    size: usize,
    in_shape: (usize, usize, usize, usize),
}

impl AvgPool {
    /// Creates an average-pool layer with window/stride `size ≥ 2`.
    pub fn new(size: usize) -> Self {
        assert!(size >= 2, "pool size must be >= 2");
        Self {
            size,
            in_shape: (0, 0, 0, 0),
        }
    }
}

impl Layer for AvgPool {
    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        let (n, c, h, w) = input.shape();
        let s = self.size;
        assert!(h >= s && w >= s, "input {h}x{w} smaller than pool {s}");
        let (oh, ow) = (h / s, w / s);
        self.in_shape = (n, c, h, w);
        let inv = 1.0 / (s * s) as f32;
        let mut out = Tensor::zeros(n, c, oh, ow);
        for nn in 0..n {
            for cc in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for dy in 0..s {
                            for dx in 0..s {
                                acc += input.at(nn, cc, oy * s + dy, ox * s + dx);
                            }
                        }
                        out.set(nn, cc, oy, ox, acc * inv);
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (n, c, h, w) = self.in_shape;
        assert!(n > 0, "backward before forward");
        let s = self.size;
        let inv = 1.0 / (s * s) as f32;
        let mut grad_in = Tensor::zeros(n, c, h, w);
        let (_, _, oh, ow) = grad_out.shape();
        for nn in 0..n {
            for cc in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = grad_out.at(nn, cc, oy, ox) * inv;
                        for dy in 0..s {
                            for dx in 0..s {
                                let i = grad_in.idx(nn, cc, oy * s + dy, ox * s + dx);
                                grad_in.data_mut()[i] += g;
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }

    fn params(&mut self) -> Vec<ParamView<'_>> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::AvgPool { size: self.size }
    }

    fn flops(&self, input: (usize, usize, usize)) -> u64 {
        let (c, h, w) = input;
        (c * h * w) as u64
    }
}

/// Nearest-neighbour upsampling by an integer factor ("unpooling").
pub struct Upsample {
    factor: usize,
    in_shape: (usize, usize, usize, usize),
}

impl Upsample {
    /// Creates an upsample layer with `factor ≥ 2`.
    pub fn new(factor: usize) -> Self {
        assert!(factor >= 2, "upsample factor must be >= 2");
        Self {
            factor,
            in_shape: (0, 0, 0, 0),
        }
    }
}

impl Layer for Upsample {
    fn forward(&mut self, input: &Tensor, _training: bool) -> Tensor {
        let (n, c, h, w) = input.shape();
        let f = self.factor;
        self.in_shape = (n, c, h, w);
        let mut out = Tensor::zeros(n, c, h * f, w * f);
        // Each input row becomes `f` identical output rows: stretch it
        // once, then copy.
        for (src, dst) in input.data().chunks_exact(w).zip(out.data_mut().chunks_exact_mut(w * f * f)) {
            let (first, rest) = dst.split_at_mut(w * f);
            for (o, &v) in first.chunks_exact_mut(f).zip(src) {
                o.fill(v);
            }
            for row in rest.chunks_exact_mut(w * f) {
                row.copy_from_slice(first);
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (n, c, h, w) = self.in_shape;
        assert!(n > 0, "backward before forward");
        let f = self.factor;
        assert_eq!(grad_out.shape(), (n, c, h * f, w * f), "grad shape");
        let mut grad_in = Tensor::zeros(n, c, h, w);
        // Each input's gradient sums its `f × f` window from `+0.0` in
        // row-major order.
        let windows = grad_out.data().chunks_exact(w * f * f);
        for (gi, rows) in grad_in.data_mut().chunks_exact_mut(w).zip(windows) {
            for (x, gi) in gi.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for row in rows.chunks_exact(w * f) {
                    for &g in &row[x * f..][..f] {
                        acc += g;
                    }
                }
                *gi = acc;
            }
        }
        grad_in
    }

    fn params(&mut self) -> Vec<ParamView<'_>> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Upsample {
            factor: self.factor,
        }
    }

    fn flops(&self, input: (usize, usize, usize)) -> u64 {
        let (c, h, w) = input;
        (c * h * w * self.factor * self.factor) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The element-by-element max pool the row loops replaced:
    /// `(output, argmax)`.
    fn maxpool_ref(input: &Tensor, s: usize) -> (Tensor, Vec<usize>) {
        let (n, c, h, w) = input.shape();
        let (oh, ow) = (h / s, w / s);
        let mut out = Tensor::zeros(n, c, oh, ow);
        let mut argmax = vec![0; n * c * oh * ow];
        for nn in 0..n {
            for cc in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for dy in 0..s {
                            for dx in 0..s {
                                let iy = oy * s + dy;
                                let ix = ox * s + dx;
                                let v = input.at(nn, cc, iy, ix);
                                if v > best {
                                    best = v;
                                    best_idx = input.idx(nn, cc, iy, ix);
                                }
                            }
                        }
                        out.set(nn, cc, oy, ox, best);
                        argmax[out.idx(nn, cc, oy, ox)] = best_idx;
                    }
                }
            }
        }
        (out, argmax)
    }

    /// The element-by-element upsample forward and backward the row
    /// loops replaced.
    fn upsample_ref(input: &Tensor, grad_out: &Tensor, f: usize) -> (Tensor, Tensor) {
        let (n, c, h, w) = input.shape();
        let out = Tensor::from_fn(n, c, h * f, w * f, |nn, cc, y, x| input.at(nn, cc, y / f, x / f));
        let mut grad_in = Tensor::zeros(n, c, h, w);
        let (_, _, gh, gw) = grad_out.shape();
        for nn in 0..n {
            for cc in 0..c {
                for y in 0..gh {
                    for x in 0..gw {
                        let i = grad_in.idx(nn, cc, y / f, x / f);
                        grad_in.data_mut()[i] += grad_out.at(nn, cc, y, x);
                    }
                }
            }
        }
        (out, grad_in)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// [`bits`] for sums, with every NaN as one value: Rust leaves the
    /// sign and payload of a NaN result unspecified (`inf + −inf` plus a
    /// quiet NaN gives either sign, depending on operand order).
    fn sum_bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
    }

    /// A value drawn to make ties, NaN, ±inf and both zeros common.
    fn awkward(g: &mut sfn_rng::prop::Gen) -> f32 {
        match g.range(0..10u32) {
            0 => f32::NAN,
            1 => -0.0,
            2 => 0.0,
            3 => f32::NEG_INFINITY,
            4 => f32::INFINITY,
            _ => g.range(-2i32..=2) as f32,
        }
    }

    #[test]
    fn row_loops_match_the_element_reference_bit_for_bit() {
        sfn_rng::prop::cases(300, |g| {
            let s = g.range(2..=3usize);
            let (n, c) = (g.range(1..=2usize), g.range(1..=3usize));
            let (h, w) = (g.range(s..=11), g.range(s..=11));
            let all_nan = g.range(0..4u32) == 0;
            let input = Tensor::from_fn(n, c, h, w, |_, _, _, _| if all_nan { f32::NAN } else { awkward(g) });
            let at = format!("s={s} n={n} c={c} h={h} w={w}");

            let mut pool = MaxPool::new(s);
            let (want, want_argmax) = maxpool_ref(&input, s);
            let out = pool.forward(&input, true);
            assert_eq!(bits(&out), bits(&want), "max pool forward, {at}");
            assert_eq!(pool.argmax, want_argmax, "max pool argmax, {at}");
            let (oh, ow) = (h / s, w / s);
            let grad = Tensor::from_fn(n, c, oh, ow, |_, _, _, _| awkward(g));
            let mut want_grad = Tensor::zeros(n, c, h, w);
            for (o, &src) in want_argmax.iter().enumerate() {
                want_grad.data_mut()[src] += grad.data()[o];
            }
            assert_eq!(sum_bits(&pool.backward(&grad)), sum_bits(&want_grad), "max pool backward, {at}");

            let mut up = Upsample::new(s);
            let grad = Tensor::from_fn(n, c, h * s, w * s, |_, _, _, _| awkward(g));
            let (want_out, want_grad) = upsample_ref(&input, &grad, s);
            assert_eq!(bits(&up.forward(&input, true)), bits(&want_out), "upsample forward, {at}");
            assert_eq!(sum_bits(&up.backward(&grad)), sum_bits(&want_grad), "upsample backward, {at}");
        });
    }

    #[test]
    fn maxpool_picks_maxima() {
        let mut p = MaxPool::new(2);
        let x = Tensor::from_vec(
            1,
            1,
            4,
            4,
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        );
        let y = p.forward(&x, false);
        assert_eq!(y.shape(), (1, 1, 2, 2));
        assert_eq!(y.data(), &[4., 8., 12., 16.]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut p = MaxPool::new(2);
        let x = Tensor::from_vec(1, 1, 2, 2, vec![1., 9., 3., 4.]);
        let _ = p.forward(&x, true);
        let g = Tensor::from_vec(1, 1, 1, 1, vec![5.0]);
        let gi = p.backward(&g);
        assert_eq!(gi.data(), &[0., 5., 0., 0.]);
    }

    #[test]
    fn avgpool_averages() {
        let mut p = AvgPool::new(2);
        let x = Tensor::from_vec(1, 1, 2, 2, vec![1., 2., 3., 6.]);
        let y = p.forward(&x, false);
        assert_eq!(y.data(), &[3.0]);
        let g = Tensor::from_vec(1, 1, 1, 1, vec![4.0]);
        let gi = p.backward(&g);
        assert_eq!(gi.data(), &[1., 1., 1., 1.]);
    }

    #[test]
    fn upsample_nearest() {
        let mut u = Upsample::new(2);
        let x = Tensor::from_vec(1, 1, 1, 2, vec![3.0, 7.0]);
        let y = u.forward(&x, false);
        assert_eq!(y.shape(), (1, 1, 2, 4));
        assert_eq!(y.data(), &[3., 3., 7., 7., 3., 3., 7., 7.]);
    }

    #[test]
    fn upsample_backward_sums_children() {
        let mut u = Upsample::new(2);
        let x = Tensor::from_vec(1, 1, 1, 1, vec![1.0]);
        let _ = u.forward(&x, true);
        let g = Tensor::from_vec(1, 1, 2, 2, vec![1., 2., 3., 4.]);
        let gi = u.backward(&g);
        assert_eq!(gi.data(), &[10.0]);
    }

    #[test]
    fn pool_then_upsample_restores_shape() {
        let mut p = MaxPool::new(2);
        let mut u = Upsample::new(2);
        let x = Tensor::from_fn(2, 3, 8, 8, |n, c, h, w| (n + c + h + w) as f32);
        let y = u.forward(&p.forward(&x, false), false);
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn odd_sizes_truncate() {
        let mut p = MaxPool::new(2);
        let x = Tensor::from_fn(1, 1, 5, 5, |_, _, h, w| (h * 5 + w) as f32);
        let y = p.forward(&x, false);
        assert_eq!(y.shape(), (1, 1, 2, 2));
        // Backward still produces the full input shape.
        let g = Tensor::zeros(1, 1, 2, 2);
        let gi = p.backward(&g);
        assert_eq!(gi.shape(), (1, 1, 5, 5));
    }
}
