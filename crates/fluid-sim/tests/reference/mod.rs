//! The step's grid operators in their defining form: every face's
//! class re-derived through the bounds-checked
//! [`CellFlags::at_or_solid`], element by element, and `DivNorm` summed
//! over an allocated divergence field. These are the oracle the
//! row-slice operators of `sfn-grid` and `sfn-sim` must match bit for
//! bit; `operators.rs` (this crate) and the root crate's
//! `step_parity.rs` include this file.

use sfn_grid::{CellFlags, CellType, Field2, MacGrid};

/// [`MacGrid::enforce_solid_boundaries`].
pub fn enforce_solid_boundaries(vel: &mut MacGrid, flags: &CellFlags) {
    for j in 0..vel.ny() {
        for i in 0..=vel.nx() {
            let left = flags.at_or_solid(i as isize - 1, j as isize);
            let right = flags.at_or_solid(i as isize, j as isize);
            if left == CellType::Solid || right == CellType::Solid {
                vel.u.set(i, j, 0.0);
            }
        }
    }
    for j in 0..=vel.ny() {
        for i in 0..vel.nx() {
            let below = flags.at_or_solid(i as isize, j as isize - 1);
            let above = flags.at_or_solid(i as isize, j as isize);
            if below == CellType::Solid || above == CellType::Solid {
                vel.v.set(i, j, 0.0);
            }
        }
    }
}

/// [`MacGrid::divergence`].
pub fn divergence(vel: &MacGrid, flags: &CellFlags) -> Field2 {
    Field2::from_fn(vel.nx(), vel.ny(), |i, j| {
        if !flags.is_fluid(i, j) {
            return 0.0;
        }
        (vel.u.at(i + 1, j) - vel.u.at(i, j) + vel.v.at(i, j + 1) - vel.v.at(i, j)) / vel.dx()
    })
}

/// [`MacGrid::subtract_pressure_gradient`].
pub fn subtract_pressure_gradient(vel: &mut MacGrid, p: &Field2, flags: &CellFlags, scale: f64) {
    let cell_p = |i: isize, j: isize| -> Option<f64> {
        match flags.at_or_solid(i, j) {
            CellType::Fluid => Some(p.at(i as usize, j as usize)),
            CellType::Empty => Some(0.0),
            CellType::Solid => None,
        }
    };
    for j in 0..vel.ny() {
        for i in 0..=vel.nx() {
            match (
                cell_p(i as isize - 1, j as isize),
                cell_p(i as isize, j as isize),
            ) {
                (Some(a), Some(b)) => {
                    let val = vel.u.at(i, j) - scale * (b - a);
                    vel.u.set(i, j, val);
                }
                _ => vel.u.set(i, j, 0.0),
            }
        }
    }
    for j in 0..=vel.ny() {
        for i in 0..vel.nx() {
            match (
                cell_p(i as isize, j as isize - 1),
                cell_p(i as isize, j as isize),
            ) {
                (Some(a), Some(b)) => {
                    let val = vel.v.at(i, j) - scale * (b - a);
                    vel.v.set(i, j, val);
                }
                _ => vel.v.set(i, j, 0.0),
            }
        }
    }
}

/// `sfn_sim::div_norm`.
pub fn div_norm(vel: &MacGrid, flags: &CellFlags, weights: &Field2) -> f64 {
    let div = divergence(vel, flags);
    let mut s = 0.0;
    for j in 0..flags.ny() {
        for i in 0..flags.nx() {
            if flags.is_fluid(i, j) {
                let d = div.at(i, j);
                s += weights.at(i, j) * d * d;
            }
        }
    }
    s
}

/// `sfn_sim::forces::add_buoyancy`.
pub fn add_buoyancy(vel: &mut MacGrid, density: &Field2, flags: &CellFlags, alpha: f64, dt: f64) {
    for j in 1..vel.ny() {
        for i in 0..vel.nx() {
            if flags.is_fluid(i, j) && flags.is_fluid(i, j - 1) {
                let rho = 0.5 * (density.at(i, j) + density.at(i, j - 1));
                let v = vel.v.at(i, j) + dt * alpha * rho;
                vel.v.set(i, j, v);
            }
        }
    }
}

/// `sfn_sim::advect::advect_scalar`: the field advected as if every
/// cell were fluid, then each solid cell given back its old value.
pub fn advect_scalar(vel: &MacGrid, q: &Field2, flags: &CellFlags, dt: f64) -> Field2 {
    let open = CellFlags::all_fluid(q.w(), q.h());
    let mut out = sfn_sim::advect::advect_scalar(vel, q, &open, dt);
    for j in 0..q.h() {
        for i in 0..q.w() {
            if flags.is_solid(i, j) {
                out.set(i, j, q.at(i, j));
            }
        }
    }
    out
}

/// True when `a` and `b` are the same value bit for bit, or both NaN
/// (IEEE 754 leaves which operand's payload a NaN result carries to
/// the implementation).
pub fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}
