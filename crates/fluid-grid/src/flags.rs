//! Cell classification: fluid, solid (obstacle/wall) or empty (open air).
//!
//! The paper's input problems are "occupancy grids with the border wall"
//! plus objects placed in the domain (§7). `CellFlags` stores that
//! occupancy and offers rasterisation helpers for the synthetic geometry
//! generated by `sfn-workload`.

/// The material occupying a grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellType {
    /// Interior fluid cell: pressure unknown, velocity evolves.
    Fluid,
    /// Solid obstacle or wall: zero normal velocity, Neumann pressure.
    Solid,
    /// Open boundary (air): Dirichlet pressure `p = 0`.
    Empty,
}

/// Per-cell material flags on an `nx × ny` cell-centred grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFlags {
    nx: usize,
    ny: usize,
    cells: Vec<CellType>,
}

impl CellFlags {
    /// All-fluid grid of size `nx × ny`.
    pub fn all_fluid(nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "flags dimensions must be positive");
        Self {
            nx,
            ny,
            cells: vec![CellType::Fluid; nx * ny],
        }
    }

    /// The paper's canonical domain: solid walls on the left, right and
    /// bottom borders, open (empty) top row, fluid inside — a smoke box
    /// whose plume can leave through the top.
    pub fn smoke_box(nx: usize, ny: usize) -> Self {
        let mut f = Self::all_fluid(nx, ny);
        for j in 0..ny {
            f.set(0, j, CellType::Solid);
            f.set(nx - 1, j, CellType::Solid);
        }
        for i in 0..nx {
            f.set(i, 0, CellType::Solid);
        }
        for i in 1..nx - 1 {
            f.set(i, ny - 1, CellType::Empty);
        }
        f
    }

    /// Fully closed box: solid on all four borders.
    pub fn closed_box(nx: usize, ny: usize) -> Self {
        let mut f = Self::all_fluid(nx, ny);
        for j in 0..ny {
            f.set(0, j, CellType::Solid);
            f.set(nx - 1, j, CellType::Solid);
        }
        for i in 0..nx {
            f.set(i, 0, CellType::Solid);
            f.set(i, ny - 1, CellType::Solid);
        }
        f
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

    /// Flag of cell `(i, j)`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> CellType {
        debug_assert!(i < self.nx && j < self.ny);
        self.cells[j * self.nx + i]
    }

    /// Every flag, row-major like [`crate::Field2`]: cell `(i, j)` at
    /// `[j * nx + i]`.
    #[inline]
    pub fn cells(&self) -> &[CellType] {
        &self.cells
    }

    /// Flag of cell `(i, j)` with out-of-range coordinates treated as
    /// solid (the world outside the domain is wall).
    #[inline]
    pub fn at_or_solid(&self, i: isize, j: isize) -> CellType {
        if i < 0 || j < 0 || i as usize >= self.nx || j as usize >= self.ny {
            CellType::Solid
        } else {
            self.at(i as usize, j as usize)
        }
    }

    /// Sets the flag of cell `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, t: CellType) {
        debug_assert!(i < self.nx && j < self.ny);
        self.cells[j * self.nx + i] = t;
    }

    /// True if `(i, j)` is a fluid cell.
    #[inline]
    pub fn is_fluid(&self, i: usize, j: usize) -> bool {
        self.at(i, j) == CellType::Fluid
    }

    /// True if `(i, j)` is solid.
    #[inline]
    pub fn is_solid(&self, i: usize, j: usize) -> bool {
        self.at(i, j) == CellType::Solid
    }

    /// Number of fluid cells.
    pub fn fluid_count(&self) -> usize {
        self.cells.iter().filter(|&&c| c == CellType::Fluid).count()
    }

    /// Number of solid cells.
    pub fn solid_count(&self) -> usize {
        self.cells.iter().filter(|&&c| c == CellType::Solid).count()
    }

    /// Rasterises a solid disc centred at `(cx, cy)` (cell units) with
    /// radius `r`: every cell whose centre lies inside becomes solid.
    pub fn add_solid_disc(&mut self, cx: f64, cy: f64, r: f64) {
        let r2 = r * r;
        for j in 0..self.ny {
            for i in 0..self.nx {
                let dx = (i as f64 + 0.5) - cx;
                let dy = (j as f64 + 0.5) - cy;
                if dx * dx + dy * dy <= r2 {
                    self.set(i, j, CellType::Solid);
                }
            }
        }
    }

    /// Rasterises an axis-aligned solid box `[x0, x1] × [y0, y1]`
    /// (cell units, inclusive of any cell whose centre falls inside).
    pub fn add_solid_box(&mut self, x0: f64, y0: f64, x1: f64, y1: f64) {
        for j in 0..self.ny {
            for i in 0..self.nx {
                let x = i as f64 + 0.5;
                let y = j as f64 + 0.5;
                if x >= x0 && x <= x1 && y >= y0 && y <= y1 {
                    self.set(i, j, CellType::Solid);
                }
            }
        }
    }

    /// Rasterises a solid capsule (thick segment) from `(ax, ay)` to
    /// `(bx, by)` with radius `r`.
    pub fn add_solid_capsule(&mut self, ax: f64, ay: f64, bx: f64, by: f64, r: f64) {
        let r2 = r * r;
        let (dx, dy) = (bx - ax, by - ay);
        let len2 = dx * dx + dy * dy;
        for j in 0..self.ny {
            for i in 0..self.nx {
                let px = (i as f64 + 0.5) - ax;
                let py = (j as f64 + 0.5) - ay;
                let t = if len2 > 0.0 {
                    ((px * dx + py * dy) / len2).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let ex = px - t * dx;
                let ey = py - t * dy;
                if ex * ex + ey * ey <= r2 {
                    self.set(i, j, CellType::Solid);
                }
            }
        }
    }

    /// A 0/1 occupancy image (1 = solid), the geometry channel `g` that
    /// the surrogate CNN consumes (Eq. 4).
    pub fn occupancy(&self) -> crate::Field2 {
        crate::Field2::from_fn(self.nx, self.ny, |i, j| {
            if self.is_solid(i, j) {
                1.0
            } else {
                0.0
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_box_layout() {
        let f = CellFlags::smoke_box(8, 8);
        assert!(f.is_solid(0, 3));
        assert!(f.is_solid(7, 3));
        assert!(f.is_solid(3, 0));
        assert_eq!(f.at(3, 7), CellType::Empty);
        assert!(f.is_fluid(3, 3));
        // Top corners stay solid (walls meet the open top).
        assert!(f.is_solid(0, 7));
        assert!(f.is_solid(7, 7));
    }

    #[test]
    fn closed_box_has_no_empty() {
        let f = CellFlags::closed_box(6, 6);
        assert_eq!(
            f.fluid_count() + f.solid_count(),
            36,
            "closed box must contain only fluid and solid"
        );
        assert_eq!(f.fluid_count(), 16);
    }

    #[test]
    fn outside_is_solid() {
        let f = CellFlags::all_fluid(4, 4);
        assert_eq!(f.at_or_solid(-1, 0), CellType::Solid);
        assert_eq!(f.at_or_solid(0, 4), CellType::Solid);
        assert_eq!(f.at_or_solid(2, 2), CellType::Fluid);
    }

    #[test]
    fn disc_rasterisation() {
        let mut f = CellFlags::all_fluid(16, 16);
        f.add_solid_disc(8.0, 8.0, 3.0);
        assert!(f.is_solid(8, 8));
        assert!(f.is_solid(6, 8));
        assert!(f.is_fluid(2, 2));
        // Rough area check: πr² ≈ 28 cells.
        let n = f.solid_count();
        assert!((20..40).contains(&n), "disc rasterised {n} cells");
    }

    #[test]
    fn box_rasterisation() {
        let mut f = CellFlags::all_fluid(10, 10);
        f.add_solid_box(2.0, 3.0, 5.0, 6.0);
        assert!(f.is_solid(3, 4));
        assert!(f.is_fluid(6, 4));
        assert!(f.is_fluid(3, 7));
    }

    #[test]
    fn capsule_covers_segment() {
        let mut f = CellFlags::all_fluid(20, 20);
        f.add_solid_capsule(3.0, 10.0, 16.0, 10.0, 1.2);
        assert!(f.is_solid(10, 9) || f.is_solid(10, 10));
        assert!(f.is_fluid(10, 15));
    }

    #[test]
    fn occupancy_is_binary() {
        let mut f = CellFlags::all_fluid(5, 5);
        f.add_solid_disc(2.5, 2.5, 1.0);
        let occ = f.occupancy();
        for j in 0..5 {
            for i in 0..5 {
                let v = occ.at(i, j);
                assert!(v == 0.0 || v == 1.0);
                assert_eq!(v == 1.0, f.is_solid(i, j));
            }
        }
    }
}
