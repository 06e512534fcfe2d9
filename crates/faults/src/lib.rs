//! `sfn-faults` — deterministic, seeded fault injection for the
//! Smart-fluidnet pipeline.
//!
//! The paper's runtime (Algorithm 2) promises a quality target even
//! when individual surrogates misbehave; this crate supplies the
//! misbehaviour on demand so the promise can be *tested*. A schedule
//! ([`FaultPlan`]) describes which faults fire where:
//!
//! * **`nan_output` / `inf_output`** — poison a fraction of a
//!   surrogate's output field ([`corrupt_field`]), the divergence
//!   failure mode of unconstrained CNN projections;
//! * **`solver_starvation`** — force an exact solver to stop short and
//!   report non-convergence ([`starve_solver`]);
//! * **`artifact_corruption`** — flip or truncate artifact bytes on
//!   read ([`corrupt_bytes`]);
//! * **`latency_spike`** — stretch an inference call ([`latency_spike`]).
//!
//! # Configuration
//!
//! Set `SFN_FAULTS` to a JSON schedule and call [`init_from_env`] (the
//! bench harness and the chaos suite do), or [`install`] a plan
//! programmatically:
//!
//! ```
//! use sfn_faults::{install, parse_plan};
//! let plan = parse_plan(r#"{"seed": 7, "faults": [
//!     {"kind": "nan_output", "p": 0.5, "start": 8}]}"#).unwrap();
//! install(Some(plan));
//! // ... drive the system, then disarm:
//! install(None);
//! ```
//!
//! # Determinism
//!
//! Every decision is a pure hash of `(seed, spec index, site label,
//! step)` — no shared RNG state — so a schedule reproduces exactly
//! across runs, thread interleavings, and rollback replays. Injections
//! are logged as `fault.injected` events and counted (`faults.injected`
//! / `faults.recovered`) through `sfn-obs`.
//!
//! Like `sfn-obs`, this crate is dependency-free: with no plan
//! installed every hook is one relaxed atomic load.

#![warn(missing_docs)]

pub mod config;
mod inject;
pub mod rng;

pub use config::{parse_plan, FaultKind, FaultPlan, FaultSpec, ParseError};
pub use inject::{
    active, conn_reset, corrupt_bytes, corrupt_field, current_plan, init_from_env,
    injected_count, install, latency_spike, note_recovery, queue_stall, recovered_count,
    slow_client, starve_solver,
};
