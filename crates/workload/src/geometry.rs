//! Random occupancy geometry — the NTU-3D-dataset substitute.
//!
//! Each problem places a few random solid primitives (discs, boxes,
//! capsules) inside a smoke box with border walls, keeping the smoke
//! inlet and its immediate exhaust corridor clear so every problem can
//! actually develop a plume.

use sfn_grid::CellFlags;
use sfn_rng::rngs::StdRng;
use sfn_rng::{RngExt, SeedableRng};
use sfn_sim::SmokeSource;

/// Parameters for random geometry placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometrySpec {
    /// Maximum number of obstacles (the actual count is random in
    /// `0..=max_objects`).
    pub max_objects: usize,
    /// Smallest obstacle radius as a fraction of the grid size.
    pub min_radius_frac: f64,
    /// Largest obstacle radius as a fraction of the grid size.
    pub max_radius_frac: f64,
}

impl Default for GeometrySpec {
    fn default() -> Self {
        Self {
            max_objects: 3,
            min_radius_frac: 0.04,
            max_radius_frac: 0.12,
        }
    }
}

impl GeometrySpec {
    /// Generates a random occupancy grid for an `nx × ny` smoke box,
    /// never blocking the given source's inlet region.
    pub fn generate(&self, nx: usize, ny: usize, source: &SmokeSource, seed: u64) -> CellFlags {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut flags = CellFlags::smoke_box(nx, ny);
        let n_objects = rng.random_range(0..=self.max_objects);
        let nf = nx.min(ny) as f64;
        // Keep the inlet and a corridor above it clear.
        let clear_x0 = source.x0 - 2.0;
        let clear_x1 = source.x1 + 2.0;
        let clear_y0 = source.y0 - 2.0;
        let clear_y1 = source.y1 + nf * 0.15;
        let mut placed = 0usize;
        let mut attempts = 0usize;
        while placed < n_objects && attempts < 50 {
            attempts += 1;
            let r = nf * rng.random_range(self.min_radius_frac..self.max_radius_frac);
            let cx = rng.random_range(r + 1.5..nx as f64 - r - 1.5);
            let cy = rng.random_range(ny as f64 * 0.25..ny as f64 - r - 2.0);
            // Reject obstacles overlapping the protected corridor.
            if cx + r > clear_x0 && cx - r < clear_x1 && cy + r > clear_y0 && cy - r < clear_y1 {
                continue;
            }
            match rng.random_range(0..3u32) {
                0 => flags.add_solid_disc(cx, cy, r),
                1 => flags.add_solid_box(cx - r, cy - r * 0.6, cx + r, cy + r * 0.6),
                _ => {
                    let angle: f64 = rng.random_range(0.0..std::f64::consts::PI);
                    let (dx, dy) = (angle.cos() * r, angle.sin() * r);
                    flags.add_solid_capsule(cx - dx, cy - dy, cx + dx, cy + dy, r * 0.35);
                }
            }
            placed += 1;
        }
        flags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let spec = GeometrySpec::default();
        let src = SmokeSource::plume_inlet(64, 64);
        assert_eq!(spec.generate(64, 64, &src, 4), spec.generate(64, 64, &src, 4));
    }

    #[test]
    fn inlet_never_blocked() {
        let spec = GeometrySpec {
            max_objects: 6,
            ..Default::default()
        };
        for n in [32usize, 64] {
            let src = SmokeSource::plume_inlet(n, n);
            for seed in 0..40 {
                let flags = spec.generate(n, n, &src, seed);
                for j in 0..n {
                    for i in 0..n {
                        if src.contains(i, j) {
                            assert!(
                                flags.is_fluid(i, j),
                                "seed {seed}: inlet cell ({i},{j}) blocked"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn border_wall_always_present() {
        let spec = GeometrySpec::default();
        let src = SmokeSource::plume_inlet(32, 32);
        let flags = spec.generate(32, 32, &src, 7);
        for j in 0..32 {
            assert!(flags.is_solid(0, j));
            assert!(flags.is_solid(31, j));
        }
        for i in 0..32 {
            assert!(flags.is_solid(i, 0));
        }
    }

    #[test]
    fn some_seeds_place_obstacles() {
        let spec = GeometrySpec::default();
        let src = SmokeSource::plume_inlet(64, 64);
        let baseline = CellFlags::smoke_box(64, 64).solid_count();
        let with_extra = (0..20)
            .filter(|&s| spec.generate(64, 64, &src, s).solid_count() > baseline)
            .count();
        assert!(with_extra >= 10, "only {with_extra}/20 seeds placed obstacles");
    }

    #[test]
    fn domain_stays_mostly_fluid() {
        let spec = GeometrySpec::default();
        let src = SmokeSource::plume_inlet(64, 64);
        for seed in 0..10 {
            let flags = spec.generate(64, 64, &src, seed);
            let fluid_frac = flags.fluid_count() as f64 / (64.0 * 64.0);
            assert!(fluid_frac > 0.6, "seed {seed}: fluid fraction {fluid_frac}");
        }
    }
}
