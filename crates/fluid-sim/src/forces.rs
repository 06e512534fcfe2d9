//! Body forces (Algorithm 1 line 5: `u_B = u_A + Δt·f`).
//!
//! The smoke plume is driven by Boussinesq buoyancy: hot, light smoke
//! rises, so the vertical velocity receives a force proportional to the
//! smoke density sampled at each horizontal face. Gravity on the bulk
//! fluid is absorbed into the pressure (standard for single-phase
//! smoke), so only the buoyant difference appears. Vorticity
//! confinement, an optional extension used by mantaflow to re-inject
//! small-scale swirl lost to numerical diffusion, is also provided.

use sfn_grid::{CellFlags, CellType, Field2, MacGrid};

/// Adds buoyancy `Δt·α·ρ_smoke` upwards (positive `y`), sampling the
/// cell-centred density at the `v` faces.
pub fn add_buoyancy(vel: &mut MacGrid, density: &Field2, flags: &CellFlags, alpha: f64, dt: f64) {
    let (nx, ny) = (vel.nx(), vel.ny());
    assert_eq!((density.w(), density.h()), (nx, ny), "density shape");
    assert_eq!((flags.nx(), flags.ny()), (nx, ny), "flag shape");
    let scope = sfn_prof::KernelScope::enter("forces");
    if scope.active() {
        // Per interior v-face: two density reads plus the face value,
        // one write, four flops.
        let faces = (nx * ny.saturating_sub(1)) as u64;
        scope.record(4 * faces, 3 * faces * 8, faces * 8);
    }
    let (cells, rho) = (flags.cells(), density.data());
    let kick = dt * alpha;
    // Interior face row j + 1 sits between cell rows j and j + 1.
    let rows = vel.v.data_mut()[nx..ny * nx].chunks_exact_mut(nx);
    for (j, v) in rows.enumerate() {
        let (lo, hi) = (j * nx, (j + 1) * nx);
        let below = cells[lo..hi].iter().zip(&rho[lo..hi]);
        let above = cells[hi..hi + nx].iter().zip(&rho[hi..hi + nx]);
        for ((v, (&cb, &rb)), (&ca, &ra)) in v.iter_mut().zip(below).zip(above) {
            if cb == CellType::Fluid && ca == CellType::Fluid {
                *v += kick * (0.5 * (ra + rb));
            }
        }
    }
}

/// Cell-centred vorticity `ω = ∂v/∂x − ∂u/∂y` via central differences
/// of face velocities.
pub fn vorticity(vel: &MacGrid) -> Field2 {
    let (nx, ny) = (vel.nx(), vel.ny());
    Field2::from_fn(nx, ny, |i, j| {
        // dv/dx at cell centre: average v on cell, differenced across x.
        let v_right = if i + 1 < nx {
            0.5 * (vel.v.at(i + 1, j) + vel.v.at(i + 1, j + 1))
        } else {
            0.0
        };
        let v_left = if i > 0 {
            0.5 * (vel.v.at(i - 1, j) + vel.v.at(i - 1, j + 1))
        } else {
            0.0
        };
        let u_up = if j + 1 < ny {
            0.5 * (vel.u.at(i, j + 1) + vel.u.at(i + 1, j + 1))
        } else {
            0.0
        };
        let u_down = if j > 0 {
            0.5 * (vel.u.at(i, j - 1) + vel.u.at(i + 1, j - 1))
        } else {
            0.0
        };
        ((v_right - v_left) - (u_up - u_down)) / (2.0 * vel.dx())
    })
}

/// Vorticity confinement (Fedkiw et al. 2001): adds `ε·dx·(N × ω)`
/// where `N = ∇|ω| / ‖∇|ω|‖`, pushing energy back into vortices.
pub fn add_vorticity_confinement(vel: &mut MacGrid, flags: &CellFlags, epsilon: f64, dt: f64) {
    if epsilon == 0.0 {
        return;
    }
    let (nx, ny) = (vel.nx(), vel.ny());
    let scope = sfn_prof::KernelScope::enter("forces");
    if scope.active() {
        // Vorticity (8 reads, ~8 flops), |ω| gradient + normalised cross
        // product (~12 flops, 5 reads, 2 writes), and two face-update
        // passes (4 reads, 2 writes) per cell.
        let n = (nx * ny) as u64;
        scope.record(25 * n, 17 * n * 8, 4 * n * 8);
    }
    let w = vorticity(vel);
    let wabs = Field2::from_fn(nx, ny, |i, j| w.at(i, j).abs());
    // Force at cell centres.
    let mut fx = Field2::new(nx, ny);
    let mut fy = Field2::new(nx, ny);
    for j in 0..ny {
        for i in 0..nx {
            if !flags.is_fluid(i, j) {
                continue;
            }
            let gx = (wabs.at_clamped(i as isize + 1, j as isize)
                - wabs.at_clamped(i as isize - 1, j as isize))
                / 2.0;
            let gy = (wabs.at_clamped(i as isize, j as isize + 1)
                - wabs.at_clamped(i as isize, j as isize - 1))
                / 2.0;
            let mag = (gx * gx + gy * gy).sqrt().max(1e-12);
            let (nx_, ny_) = (gx / mag, gy / mag);
            // 2-D cross product N × ω ẑ = (N_y·ω, −N_x·ω).
            fx.set(i, j, epsilon * vel.dx() * ny_ * w.at(i, j));
            fy.set(i, j, -epsilon * vel.dx() * nx_ * w.at(i, j));
        }
    }
    // Apply to faces by averaging the two adjacent cell-centred forces.
    for j in 0..ny {
        for i in 1..nx {
            if flags.is_fluid(i, j) && flags.is_fluid(i - 1, j) {
                let f = 0.5 * (fx.at(i, j) + fx.at(i - 1, j));
                let u = vel.u.at(i, j) + dt * f;
                vel.u.set(i, j, u);
            }
        }
    }
    for j in 1..ny {
        for i in 0..nx {
            if flags.is_fluid(i, j) && flags.is_fluid(i, j - 1) {
                let f = 0.5 * (fy.at(i, j) + fy.at(i, j - 1));
                let v = vel.v.at(i, j) + dt * f;
                vel.v.set(i, j, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buoyancy_lifts_smoke() {
        let mut vel = MacGrid::new(8, 8, 1.0);
        let flags = CellFlags::all_fluid(8, 8);
        let mut density = Field2::new(8, 8);
        density.set(4, 4, 1.0);
        add_buoyancy(&mut vel, &density, &flags, 2.0, 0.5);
        // Faces v(4,4) and v(4,5) border the smoky cell.
        assert!(vel.v.at(4, 4) > 0.0);
        assert!(vel.v.at(4, 5) > 0.0);
        assert_eq!(vel.v.at(1, 1), 0.0);
        // u faces untouched.
        assert_eq!(vel.u.max_abs(), 0.0);
    }

    #[test]
    fn buoyancy_magnitude() {
        let mut vel = MacGrid::new(4, 4, 1.0);
        let flags = CellFlags::all_fluid(4, 4);
        let mut density = Field2::new(4, 4);
        density.set(2, 1, 1.0);
        density.set(2, 2, 1.0);
        add_buoyancy(&mut vel, &density, &flags, 3.0, 0.5);
        // v(2,2) between two full-density cells: Δt·α·ρ = 0.5·3·1 = 1.5.
        assert!((vel.v.at(2, 2) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn vorticity_of_rigid_rotation() {
        // u = -y, v = x about the grid centre: ω = 2 everywhere.
        let n = 16;
        let mut vel = MacGrid::new(n, n, 1.0);
        let c = n as f64 / 2.0;
        for j in 0..n {
            for i in 0..=n {
                let y = j as f64 + 0.5;
                vel.u.set(i, j, -(y - c));
            }
        }
        for j in 0..=n {
            for i in 0..n {
                let x = i as f64 + 0.5;
                vel.v.set(i, j, x - c);
            }
        }
        let w = vorticity(&vel);
        // Interior cells (away from one-sided boundary stencils).
        for j in 2..n - 2 {
            for i in 2..n - 2 {
                assert!((w.at(i, j) - 2.0).abs() < 1e-9, "ω({i},{j}) = {}", w.at(i, j));
            }
        }
    }

    #[test]
    fn confinement_zero_epsilon_is_noop() {
        let mut vel = MacGrid::new(8, 8, 1.0);
        vel.u.fill(0.3);
        let flags = CellFlags::all_fluid(8, 8);
        let before = vel.clone();
        add_vorticity_confinement(&mut vel, &flags, 0.0, 0.1);
        assert_eq!(vel, before);
    }

    #[test]
    fn confinement_amplifies_vortex_energy() {
        // Build a single vortex and check kinetic energy grows.
        let n = 24;
        let mut vel = MacGrid::new(n, n, 1.0);
        let c = n as f64 / 2.0;
        for j in 0..n {
            for i in 0..=n {
                let x = i as f64;
                let y = j as f64 + 0.5;
                let (dx, dy) = (x - c, y - c);
                let r2 = dx * dx + dy * dy;
                vel.u.set(i, j, -dy * (-r2 / 16.0).exp());
            }
        }
        for j in 0..=n {
            for i in 0..n {
                let x = i as f64 + 0.5;
                let y = j as f64;
                let (dx, dy) = (x - c, y - c);
                let r2 = dx * dx + dy * dy;
                vel.v.set(i, j, dx * (-r2 / 16.0).exp());
            }
        }
        let flags = CellFlags::all_fluid(n, n);
        let energy = |g: &MacGrid| -> f64 {
            g.u.data().iter().map(|v| v * v).sum::<f64>()
                + g.v.data().iter().map(|v| v * v).sum::<f64>()
        };
        let e0 = energy(&vel);
        add_vorticity_confinement(&mut vel, &flags, 5.0, 0.1);
        let e1 = energy(&vel);
        assert!(e1 > e0, "confinement should add energy: {e0} -> {e1}");
    }
}
