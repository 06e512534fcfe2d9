//! Semi-Lagrangian advection (Algorithm 1 line 4: `u_A = advect(u_n, Δt, q)`).
//!
//! Quantities are traced backwards through the velocity field with a
//! second-order Runge-Kutta (midpoint) backtrace and sampled with
//! bilinear interpolation — the classic unconditionally stable scheme
//! used by mantaflow's default advection. A MacCormack variant adds a
//! correction pass with a monotonicity clamp.

use sfn_grid::simd::{Backtrace, Grid};
use sfn_grid::{CellFlags, CellType, Field2, MacGrid};

/// Backtraces position `(x, y)` (grid units) through `vel` by `dt`
/// with RK2 (midpoint). Velocities are physical (`dx` per time unit),
/// so the displacement in grid units is `dt·u/dx`.
#[inline]
fn backtrace(vel: &MacGrid, x: f64, y: f64, dt: f64) -> (f64, f64) {
    let s = dt / vel.dx();
    let (u1, v1) = vel.sample(x, y);
    let (mx, my) = (x - 0.5 * s * u1, y - 0.5 * s * v1);
    let (u2, v2) = vel.sample(mx, my);
    (x - s * u2, y - s * v2)
}

/// Points per parallel chunk of [`advect_rows`]: ~30 µs of gathered
/// samples, a few pool hand-offs' worth.
const GRAIN: usize = 2048;

/// Single-thread cost of one traced point on the gathered path
/// (`kernels` bench: `advect/64`, 4096 points, 59 µs) — what `sfn-par`
/// is told, so 64² and below (the 24² training set-up, most served
/// grids) stay inline under its `MIN_FAN_OUT_NS` rule.
const NS_PER_POINT: u64 = 15;

/// Fills `out` (the shape of `src`) with `src` sampled at the RK2
/// backtrace of each of its sample points, sample `(0, 0)` sitting at
/// `offset` in grid units: one [`Backtrace::sample_row`] per row — the
/// kernel every bilinear advection here shares — with the rows fanned
/// out over the `sfn-par` pool in [`GRAIN`]-point chunks. Rows are
/// independent and the row kernel's vector path is bit-identical to
/// its scalar reference (the expression order of [`backtrace`] +
/// [`Field2::sample_linear`]), so the result depends on neither the
/// SIMD level nor the thread count.
fn advect_rows(vel: &MacGrid, src: &Field2, offset: (f64, f64), dt: f64, out: &mut Field2) {
    fn grid(f: &Field2) -> Grid<'_> {
        Grid::new(f.data(), f.w(), f.h())
    }
    let (w, h) = (src.w(), src.h());
    let trace = Backtrace {
        u: grid(&vel.u),
        v: grid(&vel.v),
        src: grid(src),
        offset,
        scale: dt / vel.dx(),
    };
    let rows_per_chunk = GRAIN.div_ceil(w);
    let est_ns = (w * h) as u64 * NS_PER_POINT;
    sfn_par::for_each_chunk_mut(out.data_mut(), rows_per_chunk * w, est_ns, |c, chunk| {
        for (r, row) in chunk.chunks_mut(w).enumerate() {
            trace.sample_row(c * rows_per_chunk + r, row);
        }
    });
}

/// Enters the profiling scope shared by the bilinear advection kernels
/// (`advect.avx2` on the gathered path) and accounts `points` samples:
/// an RK2 backtrace (two MAC samples, 16 doubles) plus one bilinear
/// source sample (4 doubles) read, one value written, per point.
fn advect_scope(points: usize) -> sfn_prof::KernelScope {
    #[cfg(target_arch = "x86_64")]
    let vector = sfn_par::simd::level() == sfn_par::simd::SimdLevel::Avx2;
    #[cfg(not(target_arch = "x86_64"))]
    let vector = false;
    let scope = sfn_prof::KernelScope::enter(if vector { "advect.avx2" } else { "advect" });
    let n = points as u64;
    scope.record(60 * n, 20 * n * 8, n * 8);
    scope
}

/// Advects a cell-centred scalar field through `vel` by `dt`.
///
/// Solid cells keep their previous value (no smoke inside obstacles —
/// the source value there is zero anyway); values are sampled with
/// clamped bilinear interpolation, so the scheme obeys a discrete
/// max-principle (no new extrema).
///
/// Dispatches between the scalar reference and the 4-wide gathered
/// path of [`Backtrace::sample_row`]; the two agree bit-for-bit.
pub fn advect_scalar(vel: &MacGrid, q: &Field2, flags: &CellFlags, dt: f64) -> Field2 {
    assert_eq!((q.w(), q.h()), (vel.nx(), vel.ny()), "field shape");
    assert_eq!((flags.nx(), flags.ny()), (q.w(), q.h()), "flag shape");
    let _scope = advect_scope(q.w() * q.h());
    let mut out = Field2::new(q.w(), q.h());
    advect_rows(vel, q, (0.5, 0.5), dt, &mut out);
    // Solid-cell fixup (both paths): obstacles keep their old value.
    for ((o, &old), &cell) in out.data_mut().iter_mut().zip(q.data()).zip(flags.cells()) {
        if cell == CellType::Solid {
            *o = old;
        }
    }
    out
}

/// Advects the staggered velocity field through itself by `dt`
/// (self-advection), producing a new velocity field. Both face
/// components go through [`advect_rows`], like [`advect_scalar`].
pub fn advect_velocity(vel: &MacGrid, dt: f64) -> MacGrid {
    let (nx, ny) = (vel.nx(), vel.ny());
    let _scope = advect_scope((nx + 1) * ny + nx * (ny + 1));
    let mut out = MacGrid::new(nx, ny, vel.dx());
    // u(i, j) lives at (i, j + 0.5), v(i, j) at (i + 0.5, j).
    advect_rows(vel, &vel.u, (0.0, 0.5), dt, &mut out.u);
    advect_rows(vel, &vel.v, (0.5, 0.0), dt, &mut out.v);
    out
}

/// Semi-Lagrangian advection with clamped Catmull-Rom (cubic)
/// sampling — third-order where smooth, monotone at discontinuities
/// (mantaflow's clamped-cubic mode).
pub fn advect_scalar_cubic(vel: &MacGrid, q: &Field2, flags: &CellFlags, dt: f64) -> Field2 {
    assert_eq!((q.w(), q.h()), (vel.nx(), vel.ny()), "field shape");
    let scope = sfn_prof::KernelScope::enter("advect");
    if scope.active() {
        // The Catmull-Rom sample reads a 4×4 stencil (16 doubles) on top
        // of the backtrace traffic.
        let n = (q.w() * q.h()) as u64;
        scope.record(120 * n, 32 * n * 8, n * 8);
    }
    Field2::from_fn(q.w(), q.h(), |i, j| {
        if flags.is_solid(i, j) {
            return q.at(i, j);
        }
        let (x, y) = (i as f64 + 0.5, j as f64 + 0.5);
        let (bx, by) = backtrace(vel, x, y, dt);
        q.sample_cubic(bx - 0.5, by - 0.5)
    })
}

/// MacCormack (BFECC-style) advection of a scalar with a clamp to the
/// local semi-Lagrangian stencil — second-order accurate where smooth,
/// falls back to first-order at extrema.
pub fn advect_scalar_maccormack(vel: &MacGrid, q: &Field2, flags: &CellFlags, dt: f64) -> Field2 {
    let forward = advect_scalar(vel, q, flags, dt);
    let backward = advect_scalar(vel, &forward, flags, -dt);
    Field2::from_fn(q.w(), q.h(), |i, j| {
        if flags.is_solid(i, j) {
            return q.at(i, j);
        }
        let corrected = forward.at(i, j) + 0.5 * (q.at(i, j) - backward.at(i, j));
        // Clamp to the values bilinear interpolation could have produced
        // (the 2x2 neighbourhood around the backtraced point).
        let (x, y) = (i as f64 + 0.5, j as f64 + 0.5);
        let (bx, by) = backtrace(vel, x, y, dt);
        let fx = (bx - 0.5).clamp(0.0, (q.w() - 1) as f64);
        let fy = (by - 0.5).clamp(0.0, (q.h() - 1) as f64);
        let i0 = fx.floor() as usize;
        let j0 = fy.floor() as usize;
        let i1 = (i0 + 1).min(q.w() - 1);
        let j1 = (j0 + 1).min(q.h() - 1);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(a, b) in &[(i0, j0), (i1, j0), (i0, j1), (i1, j1)] {
            lo = lo.min(q.at(a, b));
            hi = hi.max(q.at(a, b));
        }
        corrected.clamp(lo, hi)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_grid::CellFlags;

    fn uniform_velocity(nx: usize, ny: usize, u: f64, v: f64) -> MacGrid {
        let mut g = MacGrid::new(nx, ny, 1.0);
        g.u.fill(u);
        g.v.fill(v);
        g
    }

    #[test]
    fn zero_velocity_is_identity() {
        let vel = MacGrid::new(8, 8, 1.0);
        let flags = CellFlags::all_fluid(8, 8);
        let q = Field2::from_fn(8, 8, |i, j| (i * j) as f64);
        let out = advect_scalar(&vel, &q, &flags, 0.1);
        for (a, b) in out.data().iter().zip(q.data()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn uniform_flow_translates_blob() {
        // A delta at (4,4) advected by u=1 for dt=2 should move to (6,4).
        let vel = uniform_velocity(16, 16, 1.0, 0.0);
        let flags = CellFlags::all_fluid(16, 16);
        let mut q = Field2::new(16, 16);
        q.set(4, 4, 1.0);
        let out = advect_scalar(&vel, &q, &flags, 2.0);
        assert!((out.at(6, 4) - 1.0).abs() < 1e-9);
        assert!(out.at(4, 4).abs() < 1e-9);
    }

    #[test]
    fn fractional_translation_interpolates() {
        let vel = uniform_velocity(16, 16, 0.5, 0.0);
        let flags = CellFlags::all_fluid(16, 16);
        let mut q = Field2::new(16, 16);
        q.set(8, 8, 1.0);
        let out = advect_scalar(&vel, &q, &flags, 1.0);
        // Mass splits between cells 8 and 9 in x.
        assert!((out.at(8, 8) - 0.5).abs() < 1e-9);
        assert!((out.at(9, 8) - 0.5).abs() < 1e-9);
    }

    fn swirly_velocity(nx: usize, ny: usize) -> MacGrid {
        let mut vel = MacGrid::new(nx, ny, 0.5);
        for j in 0..ny {
            for i in 0..=nx {
                vel.u.set(i, j, ((i * 7 + j * 3) % 5) as f64 / 2.0 - 1.0);
            }
        }
        for j in 0..=ny {
            for i in 0..nx {
                vel.v.set(i, j, ((i * 3 + j * 11) % 7) as f64 / 3.0 - 1.0);
            }
        }
        vel
    }

    /// The definition, point by point: no row kernel, no SIMD, no pool.
    fn pointwise(vel: &MacGrid, src: &Field2, (ox, oy): (f64, f64), dt: f64) -> Field2 {
        Field2::from_fn(src.w(), src.h(), |i, j| {
            let (bx, by) = backtrace(vel, i as f64 + ox, j as f64 + oy, dt);
            src.sample_linear(bx - ox, by - oy)
        })
    }

    fn assert_same_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x} vs {y} at {k}");
        }
    }

    #[test]
    fn vector_advection_bit_identical_to_scalar() {
        use sfn_par::simd::{with_level, SimdLevel};
        // Sizes straddling the 4-lane width (u rows are nx+1 wide, so
        // every nx misses a multiple of 4 somewhere), 64², and one big
        // enough to fan out; swirly flow, obstacles.
        for (nx, ny) in [(4, 4), (13, 9), (32, 17), (63, 5), (64, 64), (97, 90)] {
            let vel = swirly_velocity(nx, ny);
            let mut flags = CellFlags::all_fluid(nx, ny);
            flags.set(nx / 2, ny / 2, sfn_grid::CellType::Solid);
            let q = Field2::from_fn(nx, ny, |i, j| ((i * 5 + j * 13) % 11) as f64 / 3.0 - 1.5);
            let run = || {
                (
                    advect_scalar(&vel, &q, &flags, 0.37),
                    advect_velocity(&vel, 0.37),
                )
            };
            let (q_ref, vel_ref) = with_level(SimdLevel::Scalar, || sfn_par::with_threads(1, run));
            let (u_def, v_def) = (
                pointwise(&vel, &vel.u, (0.0, 0.5), 0.37),
                pointwise(&vel, &vel.v, (0.5, 0.0), 0.37),
            );
            assert_same_bits(u_def.data(), vel_ref.u.data(), "u vs definition");
            assert_same_bits(v_def.data(), vel_ref.v.data(), "v vs definition");
            for threads in [1, 2, 5] {
                let (q_out, vel_out) = sfn_par::with_threads(threads, run);
                let what = format!("{nx}x{ny}, {threads} threads");
                assert_same_bits(q_ref.data(), q_out.data(), &format!("density {what}"));
                assert_same_bits(vel_ref.u.data(), vel_out.u.data(), &format!("u {what}"));
                assert_same_bits(vel_ref.v.data(), vel_out.v.data(), &format!("v {what}"));
            }
        }
    }

    #[test]
    fn max_principle_holds() {
        // Semi-Lagrangian with bilinear sampling cannot create values
        // outside [min, max] of the input.
        let vel = swirly_velocity(12, 12);
        let flags = CellFlags::all_fluid(12, 12);
        let q = Field2::from_fn(12, 12, |i, j| ((i + j) % 3) as f64);
        let out = advect_scalar(&vel, &q, &flags, 0.8);
        for &v in out.data() {
            assert!((0.0..=2.0).contains(&v), "value {v} outside input range");
        }
    }

    #[test]
    fn velocity_self_advection_preserves_uniform_flow() {
        let vel = uniform_velocity(10, 10, 1.5, -0.5);
        let out = advect_velocity(&vel, 0.7);
        // A uniform field is a fixed point of self-advection.
        for &u in out.u.data() {
            assert!((u - 1.5).abs() < 1e-9);
        }
        for &v in out.v.data() {
            assert!((v + 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn solid_cells_keep_value() {
        let vel = uniform_velocity(8, 8, 1.0, 0.0);
        let mut flags = CellFlags::all_fluid(8, 8);
        flags.set(3, 3, sfn_grid::CellType::Solid);
        let mut q = Field2::new(8, 8);
        q.set(3, 3, 9.0);
        let out = advect_scalar(&vel, &q, &flags, 1.0);
        assert_eq!(out.at(3, 3), 9.0);
    }

    #[test]
    fn maccormack_sharper_than_semi_lagrangian() {
        // Advect a smooth bump around; MacCormack should keep more peak.
        let vel = uniform_velocity(32, 32, 0.37, 0.0);
        let flags = CellFlags::all_fluid(32, 32);
        let q = Field2::from_fn(32, 32, |i, j| {
            let dx = i as f64 - 8.0;
            let dy = j as f64 - 16.0;
            (-(dx * dx + dy * dy) / 8.0).exp()
        });
        let mut sl = q.clone();
        let mut mc = q.clone();
        for _ in 0..20 {
            sl = advect_scalar(&vel, &sl, &flags, 1.0);
            mc = advect_scalar_maccormack(&vel, &mc, &flags, 1.0);
        }
        let peak_sl = sl.data().iter().cloned().fold(0.0f64, f64::max);
        let peak_mc = mc.data().iter().cloned().fold(0.0f64, f64::max);
        assert!(
            peak_mc > peak_sl,
            "MacCormack peak {peak_mc} should beat SL peak {peak_sl}"
        );
    }

    #[test]
    fn cubic_advection_translates_and_respects_bounds() {
        let vel = uniform_velocity(16, 16, 1.0, 0.0);
        let flags = CellFlags::all_fluid(16, 16);
        let mut q = Field2::new(16, 16);
        q.set(4, 4, 1.0);
        let out = advect_scalar_cubic(&vel, &q, &flags, 2.0);
        assert!((out.at(6, 4) - 1.0).abs() < 1e-9, "delta should move 2 cells");
        for &v in out.data() {
            assert!((0.0..=1.0 + 1e-12).contains(&v), "clamp violated: {v}");
        }
    }

    #[test]
    fn cubic_preserves_smooth_peak_better_than_linear() {
        let vel = uniform_velocity(32, 32, 0.37, 0.0);
        let flags = CellFlags::all_fluid(32, 32);
        let q = Field2::from_fn(32, 32, |i, j| {
            let dx = i as f64 - 8.0;
            let dy = j as f64 - 16.0;
            (-(dx * dx + dy * dy) / 8.0).exp()
        });
        let mut lin = q.clone();
        let mut cub = q.clone();
        for _ in 0..20 {
            lin = advect_scalar(&vel, &lin, &flags, 1.0);
            cub = advect_scalar_cubic(&vel, &cub, &flags, 1.0);
        }
        let peak = |f: &Field2| f.data().iter().cloned().fold(0.0f64, f64::max);
        assert!(
            peak(&cub) > peak(&lin),
            "cubic peak {} vs linear peak {}",
            peak(&cub),
            peak(&lin)
        );
    }

    #[test]
    fn maccormack_respects_bounds() {
        let vel = uniform_velocity(16, 16, 0.61, 0.29);
        let flags = CellFlags::all_fluid(16, 16);
        let q = Field2::from_fn(16, 16, |i, j| ((i * 5 + j * 11) % 4) as f64);
        let out = advect_scalar_maccormack(&vel, &q, &flags, 1.0);
        for &v in out.data() {
            assert!((0.0..=3.0).contains(&v), "clamp violated: {v}");
        }
    }
}
