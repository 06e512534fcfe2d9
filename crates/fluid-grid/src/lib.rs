//! MAC staggered-grid substrate for the Eulerian fluid simulation.
//!
//! The paper (§2.1) discretises the incompressible Euler equations on a
//! MAC (marker-and-cell) grid [Harlow & Welch 1965]: pressure and other
//! scalars are sampled at cell centres, the x-velocity `u` on vertical
//! cell faces, and the y-velocity `v` on horizontal cell faces. This
//! crate provides:
//!
//! * [`field::Field2`] — a dense 2-D array with bilinear sampling,
//!   used for both cell-centred scalars and face-centred components;
//! * [`mac::MacGrid`] — the staggered velocity field with divergence,
//!   pressure-gradient subtraction and velocity sampling;
//! * [`flags::CellFlags`] — fluid/solid/empty cell classification with
//!   geometry rasterisation helpers;
//! * [`distance::distance_field`] — exact Euclidean
//!   distance-to-nearest-solid transform, used for the DivNorm weights
//!   `w_i = max(1, k − d_i)` of Eq. 5.

#![warn(missing_docs)]

pub mod distance;
pub mod field;
pub mod flags;
pub mod mac;
pub mod simd;

pub use field::Field2;
pub use flags::{CellFlags, CellType};
pub use mac::MacGrid;
