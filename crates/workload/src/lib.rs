//! Input-problem generation.
//!
//! §7 of the paper: "we initialize velocity by a pseudo-random
//! turbulent field [Kim et al., wavelet turbulence], and generate
//! occupancy grids with the border wall by introducing some objects in
//! the simulation domain. Those objects are from the NTU 3D Model
//! Dataset."
//!
//! Substitutions (documented in DESIGN.md): the turbulent field is
//! generated by seeded curl noise — a sum of random Fourier modes of a
//! stream function, giving a divergence-free multi-scale field with a
//! tunable spectrum (the role wavelet turbulence plays); the NTU mesh
//! dataset is replaced by randomly parameterised solid primitives
//! (discs, boxes, capsules), which exercise the same code paths:
//! irregular solid boundaries inside the domain.

#![warn(missing_docs)]

pub mod geometry;
pub mod problem;
pub mod scenarios;
pub mod turbulence;

pub use problem::{reference_projector, InputProblem, ProblemSet};
pub use scenarios::Scenario;
pub use turbulence::TurbulenceSpec;
