//! sfn-serve: an overload-robust, dependency-free multi-tenant
//! simulation server that answers `POST /simulate` with an Algorithm 2
//! run under a per-request deadline.
//!
//! A hand-rolled HTTP/1.1 front end (via `sfn-httpcore`, shared with
//! the `sfn-metrics` endpoint) over the Algorithm 2 runtime, designed
//! around one question: **what happens past saturation?** The answer,
//! by construction:
//!
//! * **admission control** ([`admission`]) — per-tenant token buckets
//!   and a global in-flight cap; refusals are immediate 429/503 with
//!   `Retry-After`, never an unbounded accept queue;
//! * **bounded queues** ([`queue`]) — per-tenant depth-limited queues
//!   drained round-robin, so one tenant's backlog cannot starve the
//!   rest; a full queue refuses at the door (backpressure);
//! * **deadlines** — each request's budget rides into the step loop as
//!   [`sfn_runtime::RunLimits`]; an expired budget sheds remaining
//!   work at the next step boundary and still returns a valid partial
//!   result;
//! * **brownout** ([`brownout`]) — a controller watching queue fill,
//!   in-flight fill, SLO burn (from `sfn-metrics`) and served p99,
//!   degrading through explicit rungs (relax quality → surrogate-only
//!   → halved steps → shed low priority) and recovering hysteretically;
//! * **circuit breakers** ([`breaker`]) — per-tenant doubling-backoff
//!   breakers isolate a tenant whose models keep corrupting runs.
//!
//! Configuration is the [`ServeConfig`] struct (only the bind address
//! has an environment override, `SFN_SERVE_ADDR`); chaos hooks (`slow_client`, `conn_reset`,
//! `queue_stall` via `sfn-faults`) target the `serve/conn` and
//! `serve/queue` sites.

pub mod admission;
pub mod api;
pub mod breaker;
pub mod brownout;
pub mod queue;
pub mod server;

pub use admission::{AdmitError, RateTable, TokenBucket};
pub use api::{ApiError, SimRequest};
pub use breaker::{BreakerState, BreakerTable, MAX_BACKOFF_EXP};
pub use brownout::{BrownoutConfig, BrownoutController, Rung, Signals};
pub use queue::{TenantQueues, WorkItem};
pub use server::{serve, serve_from_env, ServeConfig, ServeHandle, Stats};
