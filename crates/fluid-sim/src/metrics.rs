//! Simulation quality metrics: `DivNorm` (Eq. 5) and `Q_loss` (Eq. 3).

use sfn_grid::{CellFlags, Field2, MacGrid};

/// `DivNorm = Σ_i w_i {∇·u}²_i` over fluid cells (Eq. 5), where
/// `w_i = max(1, k − d_i)` and `d_i` is the distance to the nearest
/// solid cell. This is the training objective of the Tompson model and
/// the runtime-observable signal accumulated into `CumDivNorm`.
pub fn div_norm(vel: &MacGrid, flags: &CellFlags, weights: &Field2) -> f64 {
    let div = vel.divergence(flags);
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

/// Simulation quality loss of Eq. 3: the mean absolute difference
/// between the approximated smoke density matrix `ρ*` and the reference
/// density matrix `ρ`, averaged over all cells.
pub fn quality_loss(approx_density: &Field2, reference_density: &Field2) -> f64 {
    approx_density.mean_abs_diff(reference_density)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_grid::distance::divnorm_weights;

    #[test]
    fn divergence_free_field_has_zero_divnorm() {
        let mut vel = MacGrid::new(8, 8, 1.0);
        vel.u.fill(1.0);
        vel.v.fill(-2.0);
        let flags = CellFlags::all_fluid(8, 8);
        assert_eq!(div_norm(&vel, &flags, &divnorm_weights(&flags, 3.0)), 0.0);
    }

    #[test]
    fn divnorm_weights_boundary_cells_more() {
        // Same unit divergence placed near a wall vs. far from it.
        let flags = CellFlags::closed_box(16, 16);
        let w = divnorm_weights(&flags, 3.0);

        let mut near = MacGrid::new(16, 16, 1.0);
        near.u.set(2, 1, 1.0); // divergence at boundary-adjacent cell (1,1)
        let mut far = MacGrid::new(16, 16, 1.0);
        far.u.set(9, 8, 1.0); // divergence at interior cell (8,8)

        // Cell (1,1) has d=1 (wall at i=0): w=2. Interior w=1.
        let dn_near = div_norm(&near, &flags, &w);
        let dn_far = div_norm(&far, &flags, &w);
        assert!(dn_near > dn_far, "{dn_near} vs {dn_far}");
    }

    #[test]
    fn divnorm_is_quadratic_in_divergence() {
        let flags = CellFlags::all_fluid(8, 8);
        let w = divnorm_weights(&flags, 3.0);
        let mut v1 = MacGrid::new(8, 8, 1.0);
        v1.u.set(4, 4, 1.0);
        let mut v2 = MacGrid::new(8, 8, 1.0);
        v2.u.set(4, 4, 2.0);
        let a = div_norm(&v1, &flags, &w);
        let b = div_norm(&v2, &flags, &w);
        assert!((b - 4.0 * a).abs() < 1e-9 * b.max(1.0));
    }

    #[test]
    fn quality_loss_zero_for_identical_frames() {
        let d = Field2::from_fn(8, 8, |i, j| (i + j) as f64 / 10.0);
        assert_eq!(quality_loss(&d, &d), 0.0);
    }

    #[test]
    fn quality_loss_matches_manual_eq3() {
        let a = Field2::from_fn(2, 2, |i, _| i as f64);
        let b = Field2::new(2, 2);
        // |0| + |1| + |0| + |1| over 4 = 0.5
        assert!((quality_loss(&a, &b) - 0.5).abs() < 1e-12);
    }
}
