//! Quality-aware runtime design (§6 of the paper).
//!
//! During the simulation, the final quality loss is invisible — running
//! PCG alongside would defeat the acceleration. The runtime instead:
//!
//! 1. accumulates the per-step `DivNorm` into **`CumDivNorm`**
//!    (Eq. 9), whose growth rate stabilises after the first steps;
//! 2. every check interval, fits a least-squares line to the recent
//!    `CumDivNorm` values and extrapolates to the final time step
//!    ([`cumdiv`]);
//! 3. maps the predicted `CumDivNorm_final` to a quality loss with a
//!    k-nearest-neighbour lookup in an offline database ([`knn`]);
//! 4. compares the predicted loss with the user requirement and
//!    switches between the candidate networks — or restarts with PCG —
//!    per Algorithm 2 ([`scheduler`]).
//!
//! The scheduler is additionally *self-healing*: corrupted state rolls
//! back to the last healthy check interval ([`scheduler`]), misbehaving
//! models are quarantined with exponential backoff ([`quarantine`]),
//! and when nothing is left the run degrades gracefully to the exact
//! PCG solver. Failures on the construction paths surface as typed
//! [`RuntimeError`]s instead of panics ([`error`]).

#![warn(missing_docs)]

pub mod cumdiv;
pub mod error;
pub mod knn;
pub mod quarantine;
pub mod scheduler;

pub use cumdiv::CumDivNormTracker;
pub use error::RuntimeError;
pub use knn::KnnDatabase;
pub use quarantine::{QuarantineDecision, QuarantineTable, MAX_STRIKES};
pub use scheduler::{
    decide, Action, CandidateModel, RunLimits, RunOutcome, RuntimeConfig, SchedulerEvent,
    SmartRuntime, Truncation,
};
