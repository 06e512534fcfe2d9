//! im2col + GEMM convolution kernels.
//!
//! Direct 7-deep convolution loops are simple but leave a lot of
//! throughput on the table; the standard high-performance CPU route
//! (and what cuDNN's IMPLICIT_GEMM algorithms do on GPU) is to lower
//! the convolution to a matrix multiply:
//!
//! ```text
//! weights  [OC × IC·K·K]  ×  im2col(input)  [IC·K·K × H·W]  =  out [OC × H·W]
//! ```
//!
//! The GEMM dispatches on [`sfn_par::simd::level`]: the scalar
//! reference runs in ikj order (row of A broadcast over a row of B);
//! the AVX2 path runs a cache-blocked kernel with `MR×NR = 8×8`
//! register tiles (8 rows of A against one 8-lane f32 vector of B,
//! held in 8 ymm accumulators). Both accumulate each output element in
//! increasing-`l` order with plain mul+add (no FMA contraction), so the
//! vector path is bit-identical to the scalar reference — the property
//! the `simd_diff` oracle checks. The speedup comes from keeping the C
//! tile in registers across the whole k block instead of re-streaming
//! the C row through the cache once per `l` step.

use sfn_par::simd::{level, SimdLevel};

/// A-rows per AVX2 register tile.
const MR: usize = 8;
/// B-columns per AVX2 register tile (one f32 ymm vector).
const NR: usize = 8;
/// k-dimension cache block: the `MR×KC` A panel (8 KiB) and `KC×NR`
/// B micro-panel stay L1-resident.
const KC: usize = 256;
/// Column cache block: a `KC×NC` B block is 128 KiB — half the
/// [`sfn_par::L2_BLOCK_BYTES`] budget, leaving room for C traffic.
const NC: usize = 128;

/// Stable kernel-path name for the current dispatch level.
pub fn gemm_kernel_name() -> &'static str {
    match level() {
        SimdLevel::Avx2 => "gemm.avx2",
        SimdLevel::Neon => "gemm.neon",
        SimdLevel::Scalar => "gemm.scalar",
    }
}

/// `out = a × b` for row-major `a: m×k`, `b: k×n`, `out: m×n`.
///
/// Parallel over row blocks. `out` is overwritten.
///
/// # Panics
/// Panics if the slice lengths do not match the dimensions.
pub fn matmul(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A shape");
    assert_eq!(b.len(), k * n, "B shape");
    assert_eq!(out.len(), m * n, "C shape");
    let scope = sfn_prof::KernelScope::enter(gemm_kernel_name());
    if scope.active() {
        // Compulsory traffic model, f32 = 4 bytes: each matrix streamed
        // once (B re-reads are assumed cached).
        scope.record(
            2 * (m * k * n) as u64,
            ((m * k + k * n) * 4) as u64,
            (m * n * 4) as u64,
        );
    }
    // Whole register-tile row blocks per chunk so the vector kernel
    // never sees a split tile except at the true bottom edge.
    let est_ns = super::est_ns(2 * m * k * n, true);
    sfn_par::for_each_chunk_mut(out, MR * n, est_ns, |blk, chunk| {
        let i0 = blk * MR;
        let rows = chunk.len() / n;
        matmul_block(&a[i0 * k..(i0 + rows) * k], rows, k, b, n, chunk);
    });
}

/// Sequential variant for use inside an outer parallel loop.
pub fn matmul_seq(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A shape");
    assert_eq!(b.len(), k * n, "B shape");
    assert_eq!(out.len(), m * n, "C shape");
    matmul_block(a, m, k, b, n, out);
}

/// Single-threaded `out = a × b`, dispatched on the SIMD level.
fn matmul_block(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { matmul_avx2(a, m, k, b, n, out) },
        _ => matmul_scalar(a, m, k, b, n, out),
    }
}

/// Scalar reference GEMM: ikj order with zero-skip — the oracle
/// baseline the vector path is fuzzed against.
fn matmul_scalar(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    for i in 0..m {
        let row = &mut out[i * n..(i + 1) * n];
        row.fill(0.0);
        let arow = &a[i * k..(i + 1) * k];
        for (l, &ail) in arow.iter().enumerate() {
            if ail == 0.0 {
                continue;
            }
            let brow = &b[l * n..(l + 1) * n];
            for (c, &bv) in row.iter_mut().zip(brow) {
                *c += ail * bv;
            }
        }
    }
}

/// Cache-blocked AVX2 GEMM with 8×8 register tiles.
///
/// Loop nest: `lb` (k blocks of [`KC`]) → `jb` (column blocks of
/// [`NC`]) → `ib` (row blocks of [`MR`]) → register tile. C is zeroed
/// first and accumulated across k blocks, so every output element sums
/// its products in increasing-`l` order exactly like the scalar
/// reference (modulo FMA contraction).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_avx2(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    use std::arch::x86_64::*;
    out.fill(0.0);
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let cp = out.as_mut_ptr();
    let mut lb = 0;
    while lb < k {
        let lend = (lb + KC).min(k);
        let mut jb = 0;
        while jb < n {
            let jend = (jb + NC).min(n);
            let mut ib = 0;
            while ib < m {
                let rows = (m - ib).min(MR);
                let mut j = jb;
                // Full-width register tiles.
                while j + NR <= jend {
                    let mut acc = [_mm256_setzero_ps(); MR];
                    for (r, accr) in acc.iter_mut().enumerate().take(rows) {
                        *accr = _mm256_loadu_ps(cp.add((ib + r) * n + j));
                    }
                    for l in lb..lend {
                        let bv = _mm256_loadu_ps(bp.add(l * n + j));
                        for (r, accr) in acc.iter_mut().enumerate().take(rows) {
                            let av = _mm256_set1_ps(*ap.add((ib + r) * k + l));
                            // mul + add (not FMA): matches scalar
                            // rounding exactly.
                            *accr = _mm256_add_ps(*accr, _mm256_mul_ps(av, bv));
                        }
                    }
                    for (r, accr) in acc.iter().enumerate().take(rows) {
                        _mm256_storeu_ps(cp.add((ib + r) * n + j), *accr);
                    }
                    j += NR;
                }
                // Column tail: scalar mul+add, still l-outer so the
                // accumulation order matches.
                if j < jend {
                    for l in lb..lend {
                        for r in 0..rows {
                            let av = *ap.add((ib + r) * k + l);
                            for jj in j..jend {
                                let c = cp.add((ib + r) * n + jj);
                                *c += av * *bp.add(l * n + jj);
                            }
                        }
                    }
                }
                ib += MR;
            }
            jb = jend;
        }
        lb = lend;
    }
}

/// Lowers one sample's `ic × h × w` image (a contiguous slice) into the
/// im2col matrix `[ic·kernel·kernel × h·w]` with zero same-padding,
/// writing into `out` (which must have the exact size).
pub fn im2col(
    input: &[f32],
    ic: usize,
    h: usize,
    w: usize,
    kernel: usize,
    out: &mut [f32],
) {
    let kk = kernel * kernel;
    let pad = (kernel / 2) as isize;
    assert_eq!(input.len(), ic * h * w, "input shape");
    assert_eq!(out.len(), ic * kk * h * w, "im2col buffer shape");
    let hw = h * w;
    for c in 0..ic {
        let plane = &input[c * hw..(c + 1) * hw];
        for ky in 0..kernel {
            let dy = ky as isize - pad;
            for kx in 0..kernel {
                let dx = kx as isize - pad;
                let row = &mut out[((c * kk) + ky * kernel + kx) * hw..][..hw];
                // Valid input window for this tap.
                let y0 = (-dy).max(0) as usize;
                let y1 = ((h as isize - dy).min(h as isize)).max(0) as usize;
                let x0 = (-dx).max(0) as usize;
                let x1 = ((w as isize - dx).min(w as isize)).max(0) as usize;
                row.fill(0.0);
                // A tap can overhang past the whole image (kernel wider
                // than 2·w): its window is empty, the row stays zero.
                if x0 >= x1 {
                    continue;
                }
                for y in y0..y1 {
                    let iy = (y as isize + dy) as usize;
                    let dst = &mut row[y * w + x0..y * w + x1];
                    let src = &plane[iy * w + (x0 as isize + dx) as usize..];
                    dst.copy_from_slice(&src[..x1 - x0]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_par::simd::with_level;

    #[test]
    fn matmul_small_case() {
        // [1 2; 3 4] x [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        matmul(&a, 2, 2, &b, 2, &mut c);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
        let mut c2 = [0.0; 4];
        matmul_seq(&a, 2, 2, &b, 2, &mut c2);
        assert_eq!(c, c2);
    }

    #[test]
    fn matmul_identity() {
        let n = 7;
        let eye: Vec<f32> = (0..n * n)
            .map(|i| if i / n == i % n { 1.0 } else { 0.0 })
            .collect();
        let b: Vec<f32> = (0..n * 5).map(|i| i as f32 * 0.3 - 2.0).collect();
        let mut c = vec![0.0; n * 5];
        matmul(&eye, n, n, &b, 5, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn matmul_matches_naive_reference() {
        let (m, k, n) = (9, 13, 17);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 31) % 11) as f32 - 5.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 17) % 7) as f32 - 3.0).collect();
        let mut fast = vec![0.0; m * n];
        matmul(&a, m, k, &b, n, &mut fast);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for l in 0..k {
                    acc += a[i * k + l] * b[l * n + j];
                }
                assert!((fast[i * n + j] - acc).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn vector_path_matches_scalar_bitwise() {
        // Shapes straddling every blocking edge: register-tile tails
        // in rows and columns, multiple k blocks, multiple column
        // blocks.
        for &(m, k, n) in &[(1, 1, 1), (8, 16, 8), (9, 300, 131), (17, 513, 260)] {
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 37) % 23) as f32 / 7.0 - 1.5).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i * 29) % 19) as f32 / 5.0 - 1.8).collect();
            let mut fast = vec![0.0; m * n];
            matmul_seq(&a, m, k, &b, n, &mut fast);
            let mut slow = vec![0.0; m * n];
            with_level(sfn_par::simd::SimdLevel::Scalar, || {
                matmul_seq(&a, m, k, &b, n, &mut slow);
            });
            for (i, (x, y)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "({m},{k},{n}) elem {i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn im2col_centre_tap_is_identity() {
        let (ic, h, w, k) = (2usize, 4usize, 5usize, 3usize);
        let input: Vec<f32> = (0..ic * h * w).map(|i| i as f32).collect();
        let mut cols = vec![0.0; ic * k * k * h * w];
        im2col(&input, ic, h, w, k, &mut cols);
        // The centre tap row (ky=1, kx=1) of each channel equals the
        // original plane.
        let kk = k * k;
        for c in 0..ic {
            let row = &cols[(c * kk + 4) * h * w..][..h * w];
            assert_eq!(row, &input[c * h * w..(c + 1) * h * w]);
        }
    }

    #[test]
    fn im2col_pads_with_zeros() {
        let (ic, h, w, k) = (1usize, 3usize, 3usize, 3usize);
        let input: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let mut cols = vec![0.0; k * k * h * w];
        im2col(&input, ic, h, w, k, &mut cols);
        // Tap (ky=0, kx=0) shifts the image down-right: value at output
        // (0,0) reads input (-1,-1) = padded 0.
        let row = &cols[0..h * w];
        assert_eq!(row[0], 0.0);
        // Output (1,1) reads input (0,0) = 1.
        assert_eq!(row[4], 1.0);
    }

    #[test]
    fn im2col_handles_kernel_wider_than_image() {
        // Regression (found by the simd_diff fuzz target): a 5-tap
        // kernel over a 1-wide image has taps whose valid window is
        // empty; the x-range used to come out inverted and panic.
        let (ic, h, w, k) = (1usize, 3usize, 1usize, 5usize);
        let input = [1.0f32, 2.0, 3.0];
        let mut cols = vec![f32::NAN; ic * k * k * h * w];
        im2col(&input, ic, h, w, k, &mut cols);
        assert!(cols.iter().all(|v| v.is_finite()), "overhanging taps must zero-fill");
        // The centre tap is the identity.
        let centre = (k / 2) * k + k / 2;
        assert_eq!(&cols[centre * h * w..(centre + 1) * h * w], &input);
        // A fully overhanging tap (kx = 0, dx = −2 with w = 1) is all
        // padding.
        let tap0 = &cols[(k / 2) * k * h * w..][..h * w];
        assert!(tap0.iter().all(|&v| v == 0.0));
    }
}
