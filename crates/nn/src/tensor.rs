//! Dense `N×C×H×W` tensors.

use crate::arena::AlignedBuf;

/// A dense 4-D tensor in NCHW layout.
///
/// All activations and convolution weights in the framework use this
/// type; convolution weights are stored as `OC×IC×KH×KW` (re-using the
/// same four axes). Storage is one contiguous
/// [`crate::arena::AlignedBuf`] arena — 64-byte aligned, capacity
/// rounded to a whole AVX2 lane — so plane slices handed to the SIMD
/// kernels start on cache-line boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    data: AlignedBuf,
}

impl Tensor {
    /// Zero tensor of shape `[n, c, h, w]`.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        assert!(n * c * h * w > 0, "tensor must be non-empty");
        Self {
            n,
            c,
            h,
            w,
            data: AlignedBuf::zeroed(n * c * h * w),
        }
    }

    /// Builds a tensor from existing data.
    ///
    /// # Panics
    /// Panics if `data.len() != n·c·h·w`.
    pub fn from_vec(n: usize, c: usize, h: usize, w: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), n * c * h * w, "data length mismatch");
        assert!(!data.is_empty(), "tensor must be non-empty");
        Self {
            n,
            c,
            h,
            w,
            data: AlignedBuf::from_slice(&data),
        }
    }

    /// Builds a tensor by evaluating `f(n, c, h, w)` at every element.
    pub fn from_fn(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> f32,
    ) -> Self {
        let mut t = Self::zeros(n, c, h, w);
        for in_ in 0..n {
            for ic in 0..c {
                for ih in 0..h {
                    for iw in 0..w {
                        let idx = t.idx(in_, ic, ih, iw);
                        t.data[idx] = f(in_, ic, ih, iw);
                    }
                }
            }
        }
        t
    }

    /// Shape as `(n, c, h, w)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.n, self.c, self.h, self.w)
    }

    /// Batch size.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Channels.
    #[inline]
    pub fn c(&self) -> usize {
        self.c
    }

    /// Height.
    #[inline]
    pub fn h(&self) -> usize {
        self.h
    }

    /// Width.
    #[inline]
    pub fn w(&self) -> usize {
        self.w
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false (tensors are non-empty by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat index of `(n, c, h, w)`.
    #[inline]
    pub fn idx(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(n < self.n && c < self.c && h < self.h && w < self.w);
        ((n * self.c + c) * self.h + h) * self.w + w
    }

    /// Element access.
    #[inline]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.idx(n, c, h, w)]
    }

    /// Sets one element.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let i = self.idx(n, c, h, w);
        self.data[i] = v;
    }

    /// Raw data (NCHW order).
    #[inline]
    pub fn data(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Mutable raw data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.data.as_mut_slice()
    }

    /// The `(n, c)` image plane as a slice of length `h·w`.
    #[inline]
    pub fn plane(&self, n: usize, c: usize) -> &[f32] {
        let start = (n * self.c + c) * self.h * self.w;
        &self.data[start..start + self.h * self.w]
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let mut out = Self::zeros(self.n, self.c, self.h, self.w);
        for (o, &v) in out.data.iter_mut().zip(self.data.iter()) {
            *o = f(v);
        }
        out
    }

    /// `self += scale · other` element-wise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Fills with a constant.
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Extracts sample `n` as a batch-1 tensor.
    pub fn sample(&self, n: usize) -> Tensor {
        assert!(n < self.n, "sample index out of range");
        let chw = self.c * self.h * self.w;
        Tensor::from_vec(
            1,
            self.c,
            self.h,
            self.w,
            self.data[n * chw..(n + 1) * chw].to_vec(),
        )
    }

    /// Stacks batch-1 tensors of identical CHW shape into one batch.
    ///
    /// # Panics
    /// Panics if shapes differ or the list is empty.
    pub fn stack(samples: &[Tensor]) -> Tensor {
        assert!(!samples.is_empty(), "cannot stack zero tensors");
        let (n0, c, h, w) = samples[0].shape();
        assert_eq!(n0, 1, "stack expects batch-1 tensors");
        let mut data = Vec::with_capacity(samples.len() * c * h * w);
        for s in samples {
            assert_eq!(s.shape(), (1, c, h, w), "inhomogeneous shapes");
            data.extend_from_slice(&s.data);
        }
        Tensor::from_vec(samples.len(), c, h, w, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_nchw() {
        let t = Tensor::from_fn(2, 3, 4, 5, |n, c, h, w| (n * 1000 + c * 100 + h * 10 + w) as f32);
        assert_eq!(t.at(1, 2, 3, 4), 1234.0);
        assert_eq!(t.data()[t.idx(0, 0, 0, 1)], 1.0);
        assert_eq!(t.idx(0, 1, 0, 0), 20);
    }

    #[test]
    fn plane_slicing() {
        let t = Tensor::from_fn(2, 2, 2, 2, |n, c, _, _| (n * 10 + c) as f32);
        assert_eq!(t.plane(1, 0), &[10.0; 4]);
        assert_eq!(t.plane(0, 1), &[1.0; 4]);
    }

    #[test]
    fn sample_and_stack_round_trip() {
        let t = Tensor::from_fn(3, 2, 2, 2, |n, c, h, w| (n * 100 + c * 10 + h * 2 + w) as f32);
        let parts: Vec<Tensor> = (0..3).map(|i| t.sample(i)).collect();
        let back = Tensor::stack(&parts);
        assert_eq!(back, t);
    }

    #[test]
    fn add_scaled_and_map() {
        let mut a = Tensor::from_vec(1, 1, 1, 3, vec![1., 2., 3.]);
        let b = Tensor::from_vec(1, 1, 1, 3, vec![10., 20., 30.]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data(), &[6., 12., 18.]);
        let m = a.map(|v| v * 2.0);
        assert_eq!(m.data(), &[12., 24., 36.]);
    }

    #[test]
    fn finite_check() {
        let mut t = Tensor::zeros(1, 1, 1, 2);
        assert!(t.all_finite());
        t.data_mut()[0] = f32::INFINITY;
        assert!(!t.all_finite());
    }
}
