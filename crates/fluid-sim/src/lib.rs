//! The Eulerian smoke simulation — our `mantaflow` substitute.
//!
//! Implements Algorithm 1 of the paper with the standard operator
//! splitting: semi-Lagrangian **advection**, **body forces** (buoyancy
//! driving the smoke plume), and **pressure projection** through a
//! pluggable [`projection::PressureProjector`] — either an exact
//! Poisson solver (PCG/MICCG(0), the paper's baseline) or a neural
//! surrogate provided by the `sfn-surrogate` crate.
//!
//! The simulation output is the smoke density matrix of the rendered
//! frame (§2.1), from which the quality loss `Q_loss` of Eq. 3 is
//! computed in [`metrics`]; the per-step `DivNorm` of Eq. 5 is also
//! computed there and drives the adaptive runtime.

#![warn(missing_docs)]

pub mod advect;
pub mod config;
pub mod diagnostics;
pub mod error;
pub mod forces;
pub mod metrics;
pub mod projection;
pub mod sim;
pub mod source;

pub use config::{AdvectionScheme, SimConfig};
pub use diagnostics::{diagnostics, Diagnostics};
pub use error::SimError;
pub use metrics::{div_norm, quality_loss};
pub use projection::{ExactProjector, PressureProjector, ProjectionOutcome};
pub use sim::{Simulation, StepStats};
pub use source::SmokeSource;
