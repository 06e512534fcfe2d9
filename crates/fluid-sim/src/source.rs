//! Smoke sources: inflow regions that emit density (and optionally an
//! initial velocity) every time step, creating the 2-D smoke plume the
//! paper simulates (§2.1: "we simulate a 2D smoke plume").

use sfn_grid::{CellFlags, Field2, MacGrid};

/// A rectangular smoke emitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmokeSource {
    /// Left edge (cell units).
    pub x0: f64,
    /// Bottom edge.
    pub y0: f64,
    /// Right edge.
    pub x1: f64,
    /// Top edge.
    pub y1: f64,
    /// Density set inside the region each step (clamped to ≥ current).
    pub density: f64,
    /// Vertical inflow velocity imposed at faces inside the region.
    pub velocity: f64,
}

impl SmokeSource {
    /// A centred plume inlet near the domain bottom, scaled to the grid:
    /// width ~ nx/4, height ~ ny/16, emitting unit density.
    pub fn plume_inlet(nx: usize, ny: usize) -> Self {
        let w = nx as f64 / 8.0;
        let cx = nx as f64 / 2.0;
        let y0 = 1.0 + ny as f64 / 32.0;
        Self {
            x0: cx - w,
            y0,
            x1: cx + w,
            y1: y0 + (ny as f64 / 16.0).max(1.0),
            density: 1.0,
            velocity: 0.0,
        }
    }

    /// True if the cell centre of `(i, j)` lies inside the region.
    #[inline]
    pub fn contains(&self, i: usize, j: usize) -> bool {
        let x = i as f64 + 0.5;
        let y = j as f64 + 0.5;
        x >= self.x0 && x <= self.x1 && y >= self.y0 && y <= self.y1
    }

    /// Applies the source: stamps density (max with existing so smoke is
    /// emitted, never removed) and imposes the inflow velocity on `v`
    /// faces strictly inside the region.
    pub fn apply(&self, density: &mut Field2, vel: &mut MacGrid, flags: &CellFlags) {
        let (nx, ny) = (flags.nx(), flags.ny());
        for j in 0..ny {
            for i in 0..nx {
                if self.contains(i, j) && flags.is_fluid(i, j) {
                    let d = density.at(i, j).max(self.density);
                    density.set(i, j, d);
                }
            }
        }
        if self.velocity != 0.0 {
            for j in 1..ny {
                for i in 0..nx {
                    if self.contains(i, j)
                        && self.contains(i, j.saturating_sub(1))
                        && flags.is_fluid(i, j)
                        && flags.is_fluid(i, j - 1)
                    {
                        vel.v.set(i, j, self.velocity);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plume_inlet_is_inside_domain() {
        for n in [16usize, 32, 64, 128] {
            let s = SmokeSource::plume_inlet(n, n);
            assert!(s.x0 > 0.0 && s.x1 < n as f64);
            assert!(s.y0 > 0.0 && s.y1 < n as f64);
            // Non-degenerate region that covers at least one cell centre.
            let mut any = false;
            for j in 0..n {
                for i in 0..n {
                    any |= s.contains(i, j);
                }
            }
            assert!(any, "inlet for {n} covers no cell");
        }
    }

    #[test]
    fn apply_stamps_density() {
        let flags = CellFlags::all_fluid(16, 16);
        let mut density = Field2::new(16, 16);
        let mut vel = MacGrid::new(16, 16, 1.0);
        let s = SmokeSource {
            x0: 4.0,
            y0: 4.0,
            x1: 8.0,
            y1: 6.0,
            density: 0.8,
            velocity: 0.0,
        };
        s.apply(&mut density, &mut vel, &flags);
        assert_eq!(density.at(5, 4), 0.8);
        assert_eq!(density.at(12, 12), 0.0);
    }

    #[test]
    fn apply_never_reduces_density() {
        let flags = CellFlags::all_fluid(8, 8);
        let mut density = Field2::new(8, 8);
        density.set(4, 4, 2.0);
        let mut vel = MacGrid::new(8, 8, 1.0);
        let s = SmokeSource {
            x0: 0.0,
            y0: 0.0,
            x1: 8.0,
            y1: 8.0,
            density: 0.5,
            velocity: 0.0,
        };
        s.apply(&mut density, &mut vel, &flags);
        assert_eq!(density.at(4, 4), 2.0);
        assert_eq!(density.at(1, 1), 0.5);
    }

    #[test]
    fn inflow_velocity_applied_inside_only() {
        let flags = CellFlags::all_fluid(12, 12);
        let mut density = Field2::new(12, 12);
        let mut vel = MacGrid::new(12, 12, 1.0);
        let s = SmokeSource {
            x0: 4.0,
            y0: 4.0,
            x1: 7.0,
            y1: 7.0,
            density: 1.0,
            velocity: 2.5,
        };
        s.apply(&mut density, &mut vel, &flags);
        assert_eq!(vel.v.at(5, 6), 2.5);
        assert_eq!(vel.v.at(1, 6), 0.0);
    }

    #[test]
    fn skips_solid_cells() {
        let mut flags = CellFlags::all_fluid(8, 8);
        flags.set(4, 4, sfn_grid::CellType::Solid);
        let mut density = Field2::new(8, 8);
        let mut vel = MacGrid::new(8, 8, 1.0);
        let s = SmokeSource {
            x0: 0.0,
            y0: 0.0,
            x1: 8.0,
            y1: 8.0,
            density: 1.0,
            velocity: 0.0,
        };
        s.apply(&mut density, &mut vel, &flags);
        assert_eq!(density.at(4, 4), 0.0);
        assert_eq!(density.at(2, 2), 1.0);
    }
}
