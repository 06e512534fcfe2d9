//! The staggered MAC velocity grid.
//!
//! For an `nx × ny` cell grid (cell size `dx`, positions in grid units):
//!
//! * `u` — x-velocity on vertical faces, dimensions `(nx+1) × ny`,
//!   `u(i, j)` located at position `(i, j + 0.5)`;
//! * `v` — y-velocity on horizontal faces, dimensions `nx × (ny+1)`,
//!   `v(i, j)` located at position `(i + 0.5, j)`.
//!
//! Pressure and scalars live at cell centres `(i + 0.5, j + 0.5)`.
//! This is exactly the arrangement of §2.1: "the pressure is sampled at
//! the grid cell center and the velocity is sampled at the centers of
//! the vertical faces of the grid cell".

use crate::{CellFlags, CellType, Field2};

/// Staggered velocity field on an `nx × ny` MAC grid.
#[derive(Debug, Clone, PartialEq)]
pub struct MacGrid {
    nx: usize,
    ny: usize,
    dx: f64,
    /// x-velocity, `(nx+1) × ny`.
    pub u: Field2,
    /// y-velocity, `nx × (ny+1)`.
    pub v: Field2,
}

impl MacGrid {
    /// Zero velocity field for an `nx × ny` cell grid with spacing `dx`.
    pub fn new(nx: usize, ny: usize, dx: f64) -> Self {
        assert!(nx > 0 && ny > 0, "MacGrid dimensions must be positive");
        assert!(dx > 0.0 && dx.is_finite(), "dx must be positive");
        Self {
            nx,
            ny,
            dx,
            u: Field2::new(nx + 1, ny),
            v: Field2::new(nx, ny + 1),
        }
    }

    /// Grid width in cells.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in cells.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Cell size.
    #[inline]
    pub fn dx(&self) -> f64 {
        self.dx
    }

    /// Samples the x-velocity at an arbitrary position (grid units).
    ///
    /// `u(i, j)` sits at `(i, j + 0.5)`, so the sampler shifts y by 0.5.
    pub fn sample_u(&self, x: f64, y: f64) -> f64 {
        self.u.sample_linear(x, y - 0.5)
    }

    /// Samples the y-velocity at an arbitrary position (grid units).
    pub fn sample_v(&self, x: f64, y: f64) -> f64 {
        self.v.sample_linear(x - 0.5, y)
    }

    /// Samples the full velocity vector at a position (grid units).
    pub fn sample(&self, x: f64, y: f64) -> (f64, f64) {
        (self.sample_u(x, y), self.sample_v(x, y))
    }

    /// Maximum velocity magnitude (∞-norm over faces), used for CFL
    /// time-step control.
    pub fn max_speed(&self) -> f64 {
        self.u.max_abs().max(self.v.max_abs())
    }

    /// Central divergence per cell: `(∂u/∂x + ∂v/∂y)` with face
    /// differences, i.e. `(u(i+1,j) − u(i,j) + v(i,j+1) − v(i,j)) / dx`.
    ///
    /// Solid and empty cells get divergence 0 (no pressure equation is
    /// solved there).
    pub fn divergence(&self, flags: &CellFlags) -> Field2 {
        let mut div = Field2::new(self.nx, self.ny);
        for (j, row) in div.data_mut().chunks_exact_mut(self.nx).enumerate() {
            for (d, fluid) in row.iter_mut().zip(self.divergence_row(flags, j)) {
                *d = fluid.unwrap_or(0.0);
            }
        }
        div
    }

    /// Row `j` of [`MacGrid::divergence`], left to right: `Some(div)`
    /// for a fluid cell, `None` for a solid or empty one. A reduction
    /// over the divergence (the DivNorm of Eq. 5) folds these rows
    /// instead of allocating the field.
    ///
    /// # Panics
    /// Panics if `flags` does not match the grid or `j ≥ ny`.
    pub fn divergence_row<'a>(
        &'a self,
        flags: &'a CellFlags,
        j: usize,
    ) -> impl Iterator<Item = Option<f64>> + 'a {
        assert_eq!((flags.nx(), flags.ny()), (self.nx, self.ny), "flag shape");
        let (nx, dx) = (self.nx, self.dx);
        let u = &self.u.data()[j * (nx + 1)..(j + 1) * (nx + 1)];
        let (v_below, v_above) = self.v.data()[j * nx..(j + 2) * nx].split_at(nx);
        let cells = &flags.cells()[j * nx..(j + 1) * nx];
        cells
            .iter()
            .zip(u.iter().zip(&u[1..]))
            .zip(v_below.iter().zip(v_above))
            .map(move |((&c, (&u0, &u1)), (&v0, &v1))| {
                (c == CellType::Fluid).then(|| (u1 - u0 + v1 - v0) / dx)
            })
    }

    /// Zeroes the normal velocity on every face touching a solid cell
    /// (no-slip for the normal component, the standard MAC treatment of
    /// solid boundaries). The world outside the grid is wall, so every
    /// domain-edge face is zeroed too.
    pub fn enforce_solid_boundaries(&mut self, flags: &CellFlags) {
        let cells = flags.cells();
        self.for_each_interior_row(flags, |faces, lo, hi| {
            let (below, above) = (&cells[lo..], &cells[hi..]);
            for ((f, &a), &b) in faces.iter_mut().zip(below).zip(above) {
                if a == CellType::Solid || b == CellType::Solid {
                    *f = 0.0;
                }
            }
        });
    }

    /// Subtracts the pressure gradient: `u ← u − scale · ∇p`, where
    /// `scale = Δt / (ρ · dx)` (Algorithm 1 line 18). Faces adjacent to
    /// a solid (domain edges included) are set to zero normal velocity;
    /// an empty neighbour contributes a ghost pressure of 0 (free
    /// surface) whatever `p` holds there, so the result never depends
    /// on `p` outside the fluid.
    pub fn subtract_pressure_gradient(&mut self, p: &Field2, flags: &CellFlags, scale: f64) {
        assert_eq!((p.w(), p.h()), (self.nx, self.ny), "pressure shape");
        let (cells, p) = (flags.cells(), p.data());
        // The pressure a face sees in a non-solid cell.
        let ghost = |c: CellType, p: f64| if c == CellType::Fluid { p } else { 0.0 };
        self.for_each_interior_row(flags, |faces, lo, hi| {
            let below = cells[lo..].iter().zip(&p[lo..]);
            let above = cells[hi..].iter().zip(&p[hi..]);
            for ((f, (&ca, &a)), (&cb, &b)) in faces.iter_mut().zip(below).zip(above) {
                *f = if ca == CellType::Solid || cb == CellType::Solid {
                    0.0
                } else {
                    *f - scale * (ghost(cb, b) - ghost(ca, a))
                };
            }
        });
    }

    /// Zeroes every domain-edge face (the outside wall), then hands each
    /// row of interior faces to `row(faces, lo, hi)`: `faces[k]` lies
    /// between the cells at flat (row-major) indices `lo + k` and
    /// `hi + k` — left/right for `u`, below/above for `v`.
    fn for_each_interior_row(
        &mut self,
        flags: &CellFlags,
        mut row: impl FnMut(&mut [f64], usize, usize),
    ) {
        assert_eq!((flags.nx(), flags.ny()), (self.nx, self.ny), "flag shape");
        let (nx, ny) = (self.nx, self.ny);
        for (j, u) in self.u.data_mut().chunks_exact_mut(nx + 1).enumerate() {
            u[0] = 0.0;
            u[nx] = 0.0;
            row(&mut u[1..nx], j * nx, j * nx + 1);
        }
        let (bottom, rest) = self.v.data_mut().split_at_mut(nx);
        let (interior, top) = rest.split_at_mut((ny - 1) * nx);
        bottom.fill(0.0);
        top.fill(0.0);
        for (j, v) in interior.chunks_exact_mut(nx).enumerate() {
            row(v, j * nx, (j + 1) * nx);
        }
    }

    /// True if every velocity sample is finite.
    pub fn all_finite(&self) -> bool {
        self.u.all_finite() && self.v.all_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staggered_dimensions() {
        let g = MacGrid::new(4, 3, 1.0);
        assert_eq!((g.u.w(), g.u.h()), (5, 3));
        assert_eq!((g.v.w(), g.v.h()), (4, 4));
    }

    #[test]
    fn uniform_flow_has_zero_divergence() {
        let mut g = MacGrid::new(8, 8, 1.0);
        g.u.fill(2.0);
        g.v.fill(-1.0);
        let flags = CellFlags::all_fluid(8, 8);
        let div = g.divergence(&flags);
        assert_eq!(div.max_abs(), 0.0);
    }

    #[test]
    fn linear_velocity_has_constant_divergence() {
        // u = x  =>  du/dx = 1, v = 0  =>  div = 1 everywhere.
        let mut g = MacGrid::new(6, 6, 1.0);
        for j in 0..6 {
            for i in 0..=6 {
                g.u.set(i, j, i as f64);
            }
        }
        let flags = CellFlags::all_fluid(6, 6);
        let div = g.divergence(&flags);
        for j in 0..6 {
            for i in 0..6 {
                assert!((div.at(i, j) - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn divergence_respects_dx() {
        let mut g = MacGrid::new(4, 4, 0.5);
        for j in 0..4 {
            for i in 0..=4 {
                g.u.set(i, j, i as f64);
            }
        }
        let flags = CellFlags::all_fluid(4, 4);
        let div = g.divergence(&flags);
        assert!((div.at(1, 1) - 2.0).abs() < 1e-12); // Δu/dx = 1/0.5
    }

    #[test]
    fn sampling_recovers_face_values() {
        let mut g = MacGrid::new(4, 4, 1.0);
        g.u.set(2, 1, 5.0);
        // u(2,1) lives at (2.0, 1.5).
        assert!((g.sample_u(2.0, 1.5) - 5.0).abs() < 1e-12);
        g.v.set(1, 2, -3.0);
        // v(1,2) lives at (1.5, 2.0).
        assert!((g.sample_v(1.5, 2.0) + 3.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_field_samples_uniform() {
        let mut g = MacGrid::new(5, 5, 1.0);
        g.u.fill(1.5);
        g.v.fill(0.25);
        for &(x, y) in &[(0.1, 0.1), (2.5, 2.5), (4.9, 4.9)] {
            let (u, v) = g.sample(x, y);
            assert!((u - 1.5).abs() < 1e-12);
            assert!((v - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn solid_boundary_enforcement() {
        let mut g = MacGrid::new(6, 6, 1.0);
        g.u.fill(1.0);
        g.v.fill(1.0);
        let flags = CellFlags::closed_box(6, 6);
        g.enforce_solid_boundaries(&flags);
        // Faces adjacent to the wall column i=0 are zero.
        for j in 0..6 {
            assert_eq!(g.u.at(0, j), 0.0);
            assert_eq!(g.u.at(1, j), 0.0); // face between solid(0,j) and fluid(1,j)
        }
        // Interior faces between fluid cells keep their velocity.
        assert_eq!(g.u.at(3, 3), 1.0);
    }

    #[test]
    fn pressure_gradient_drives_flow_apart() {
        // Single high-pressure cell pushes outward on its four faces.
        let mut g = MacGrid::new(3, 3, 1.0);
        let flags = CellFlags::all_fluid(3, 3);
        let mut p = Field2::new(3, 3);
        p.set(1, 1, 4.0);
        g.subtract_pressure_gradient(&p, &flags, 1.0);
        // u(1,1) sits between cells (0,1) and (1,1): −(p₁−p₀) = −4 (flow pushed left).
        assert_eq!(g.u.at(1, 1), -4.0);
        // u(2,1) sits between cells (1,1) and (2,1): −(p₂−p₁) = +4 (flow pushed right).
        assert_eq!(g.u.at(2, 1), 4.0);
        // Same on the vertical faces.
        assert_eq!(g.v.at(1, 1), -4.0);
        assert_eq!(g.v.at(1, 2), 4.0);
    }

    #[test]
    fn projection_identity_for_constant_pressure() {
        let mut g = MacGrid::new(4, 4, 1.0);
        g.u.fill(2.0);
        g.v.fill(1.0);
        let flags = CellFlags::all_fluid(4, 4);
        let mut p = Field2::new(4, 4);
        p.fill(7.0);
        g.subtract_pressure_gradient(&p, &flags, 0.5);
        // Constant pressure => zero gradient => interior velocity
        // unchanged. Domain-boundary faces touch the implicit outside
        // wall and are pinned to zero.
        for j in 0..4 {
            for i in 1..4 {
                assert_eq!(g.u.at(i, j), 2.0);
            }
            assert_eq!(g.u.at(0, j), 0.0);
            assert_eq!(g.u.at(4, j), 0.0);
        }
        for i in 0..4 {
            for j in 1..4 {
                assert_eq!(g.v.at(i, j), 1.0);
            }
            assert_eq!(g.v.at(i, 0), 0.0);
            assert_eq!(g.v.at(i, 4), 0.0);
        }
    }
}
