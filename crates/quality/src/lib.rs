//! Offline output-quality control (§5 of the paper).
//!
//! Given execution records (per-model simulation quality and execution
//! time over many input problems), this crate:
//!
//! 1. builds the 48-component feature vectors of Eq. 6 — user
//!    requirement `(q, t)` plus 46 architecture features;
//! 2. generates training samples whose labels are per-model success
//!    rates under randomly drawn requirements;
//! 3. trains the **success-rate MLP** (topologies MLP1–MLP5 of §5.2;
//!    MLP3 is the default) that predicts `r̂_{k,q,t}` — the probability
//!    that model `k` meets requirement `U(q, t)`;
//! 4. applies the Eq. 8 expected-time rule
//!    `T_total = r̂·T_M + (1 − r̂)·T′` to select the models worth
//!    keeping for the runtime.

#![warn(missing_docs)]

pub mod features;
pub mod mlp;
pub mod records;
pub mod samples;
pub mod selection;

pub use features::feature_vector;
pub use mlp::{mlp_topology, MlpVariant, SuccessPredictor};
pub use records::{ExecutionRecord, ModelRecords};
pub use samples::{generate_samples, SampleConfig};
pub use selection::{select_runtime_models, SelectionInput};
