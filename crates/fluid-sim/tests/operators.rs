//! The row-slice grid operators against their defining form
//! (`reference/mod.rs`), bit for bit on every face, cell and sum:
//! random non-square grids, random fluid/solid/empty mixes plus the
//! wall-less and smoke-box geometries, NaN/±inf/−0 pressure in
//! non-fluid cells and garbage on every face a solid touches.

mod reference;

use reference::same_bits;
use sfn_grid::{CellFlags, CellType, Field2, MacGrid};
use sfn_rng::prop::{self, Gen};
use sfn_sim::advect::advect_scalar;
use sfn_sim::div_norm;
use sfn_sim::forces::add_buoyancy;

/// A value no operator may let through from outside the fluid.
fn garbage(g: &mut Gen) -> f64 {
    match g.range(0..5usize) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        _ => g.range(-1e300..1e300),
    }
}

fn geometry(g: &mut Gen, nx: usize, ny: usize) -> CellFlags {
    match g.range(0..4usize) {
        0 => CellFlags::all_fluid(nx, ny),
        1 => {
            let mut f = CellFlags::smoke_box(nx, ny);
            for _ in 0..g.range(0..4usize) {
                let (cx, cy) = (g.range(0.0..nx as f64), g.range(0.0..ny as f64));
                f.add_solid_disc(cx, cy, g.range(0.5..6.0));
            }
            f
        }
        _ => {
            let mut f = CellFlags::all_fluid(nx, ny);
            let (p_solid, p_empty) = (g.range(0.0..0.5), g.range(0.0..0.3));
            for j in 0..ny {
                for i in 0..nx {
                    let x = g.range(0.0..1.0);
                    if x < p_solid {
                        f.set(i, j, CellType::Solid);
                    } else if x < p_solid + p_empty {
                        f.set(i, j, CellType::Empty);
                    }
                }
            }
            f
        }
    }
}

/// Random face values, with garbage on every face a solid (or the
/// outside wall) touches.
fn velocity(g: &mut Gen, flags: &CellFlags, dx: f64) -> MacGrid {
    let (nx, ny) = (flags.nx(), flags.ny());
    let solid = |i: isize, j: isize| flags.at_or_solid(i, j) == CellType::Solid;
    let mut vel = MacGrid::new(nx, ny, dx);
    for j in 0..ny {
        for i in 0..=nx {
            let (i, jj) = (i as isize, j as isize);
            let x = if solid(i - 1, jj) || solid(i, jj) {
                garbage(g)
            } else {
                g.range(-5.0..5.0)
            };
            vel.u.set(i as usize, j, x);
        }
    }
    for j in 0..=ny {
        for i in 0..nx {
            let (ii, j) = (i as isize, j as isize);
            let x = if solid(ii, j - 1) || solid(ii, j) {
                garbage(g)
            } else {
                g.range(-5.0..5.0)
            };
            vel.v.set(i, j as usize, x);
        }
    }
    vel
}

/// A cell field: random in the fluid, garbage everywhere else.
fn cell_field(g: &mut Gen, flags: &CellFlags) -> Field2 {
    let mut f = Field2::new(flags.nx(), flags.ny());
    for j in 0..flags.ny() {
        for i in 0..flags.nx() {
            let x = if flags.is_fluid(i, j) {
                g.range(-3.0..3.0)
            } else {
                garbage(g)
            };
            f.set(i, j, x);
        }
    }
    f
}

fn assert_same(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (k, (&a, &b)) in got.iter().zip(want).enumerate() {
        assert!(same_bits(a, b), "{what}[{k}]: {a:e} vs reference {b:e}");
    }
}

fn assert_same_grid(what: &str, got: &MacGrid, want: &MacGrid) {
    assert_same(&format!("{what} u"), got.u.data(), want.u.data());
    assert_same(&format!("{what} v"), got.v.data(), want.v.data());
}

#[test]
fn row_slice_operators_match_the_reference_bit_for_bit() {
    prop::cases(400, |g| {
        let (nx, ny) = (g.range(1..41usize), g.range(1..41usize));
        let flags = geometry(g, nx, ny);
        let dx = g.range(0.25..2.0);
        let vel = velocity(g, &flags, dx);
        let p = cell_field(g, &flags);
        let weights = Field2::from_fn(nx, ny, |_, _| g.range(1.0..4.0));
        let scale = g.range(0.01..3.0);
        let (alpha, dt) = (g.range(-2.0..2.0), g.range(0.05..1.0));
        let density = Field2::from_fn(nx, ny, |_, _| g.range(0.0..1.0));

        let (mut got, mut want) = (vel.clone(), vel.clone());
        got.enforce_solid_boundaries(&flags);
        reference::enforce_solid_boundaries(&mut want, &flags);
        assert_same_grid("enforce_solid_boundaries", &got, &want);

        // The step reads divergences off walled faces (`got`): finite
        // sums. Off the garbage they must match too.
        for vel in [&vel, &got] {
            assert_same(
                "divergence",
                vel.divergence(&flags).data(),
                reference::divergence(vel, &flags).data(),
            );
            let (a, b) = (
                div_norm(vel, &flags, &weights),
                reference::div_norm(vel, &flags, &weights),
            );
            assert!(same_bits(a, b), "div_norm: {a:e} vs reference {b:e}");
        }
        let walled = got;

        let (mut got, mut want) = (vel.clone(), vel.clone());
        got.subtract_pressure_gradient(&p, &flags, scale);
        reference::subtract_pressure_gradient(&mut want, &p, &flags, scale);
        assert_same_grid("subtract_pressure_gradient", &got, &want);

        let (mut got, mut want) = (vel.clone(), vel.clone());
        add_buoyancy(&mut got, &density, &flags, alpha, dt);
        reference::add_buoyancy(&mut want, &density, &flags, alpha, dt);
        assert_same_grid("add_buoyancy", &got, &want);

        let q = cell_field(g, &flags);
        assert_same(
            "advect_scalar",
            advect_scalar(&walled, &q, &flags, dt).data(),
            reference::advect_scalar(&walled, &q, &flags, dt).data(),
        );
    });
}
