//! # smart-fluidnet
//!
//! Facade crate for the Smart-fluidnet reproduction (SC '19: *Adaptive
//! Neural Network-Based Approximation to Accelerate Eulerian Fluid
//! Simulation*, Dong et al.).
//!
//! Re-exports the whole workspace under stable module names:
//!
//! * [`grid`] — MAC staggered-grid substrate
//! * [`solver`] — the exact Poisson solver (MIC(0)-PCG, plain CG)
//! * [`sim`] — Eulerian smoke simulation (mantaflow substitute)
//! * [`nn`] — CPU CNN framework
//! * [`surrogate`] — neural pressure-projection surrogates
//! * [`modelgen`] — model transformation + Pareto candidate selection
//! * [`quality`] — MLP-based offline output-quality control
//! * [`runtime`] — quality-aware model-switch runtime
//! * [`workload`] — seeded input-problem generation
//! * [`stats`] — statistics utilities
//! * [`obs`] — observability: spans, metrics, JSONL event tracing
//! * [`httpcore`] — bounded HTTP/1.1 request parsing (shared boundary)
//! * [`metrics`] — live metrics endpoint: /metrics, SLOs, sfn-top
//! * [`serve`] — overload-robust multi-tenant simulation serving
//! * [`prof`] — kernel-level work accounting, roofline, alloc tracking
//! * [`trace`] — trace analysis: timelines, decision audit, perf diff
//! * [`faults`] — deterministic fault injection (chaos testing)
//! * [`core`] — the `SmartFluidnet` framework facade

pub use sfn_faults as faults;
pub use sfn_grid as grid;
pub use sfn_httpcore as httpcore;
pub use sfn_metrics as metrics;
pub use sfn_serve as serve;
pub use sfn_obs as obs;
pub use sfn_prof as prof;
pub use sfn_trace as trace;
pub use sfn_nn as nn;
pub use sfn_sim as sim;
pub use sfn_solver as solver;
pub use sfn_stats as stats;
pub use sfn_surrogate as surrogate;
pub use sfn_modelgen as modelgen;
pub use sfn_quality as quality;
pub use sfn_runtime as runtime;
pub use sfn_workload as workload;
pub use smart_fluidnet_core as core;
