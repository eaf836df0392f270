//! The `mpmc` prediction service: a long-running daemon that answers
//! assignment-time power-estimation queries (paper §5, Fig. 1) over
//! newline-delimited JSON — TCP for deployment, stdin/stdout for tests
//! and scripting.
//!
//! The combined model's expensive step, the equilibrium solve, is
//! memoized in a bounded sharded LRU shared by every connection, so a
//! daemon that serves many placement queries over the same process mix
//! stays fast *and* stays at a fixed memory footprint.
//!
//! Modules:
//!
//! - [`server`] — the [`PredictionService`]: profile registry, request
//!   dispatch, stdio and TCP session runners, counters and latency
//!   percentiles.
//! - [`json`] — a minimal dependency-free JSON parser/renderer (the
//!   build environment is offline; there is no serde).
//! - [`errors`] — the error taxonomy shared with the CLI's process exit
//!   codes ([`exit_code`]), including the `validate` divergence code.
//!
//! Overload hardening (DESIGN.md §13):
//!
//! - [`admission`] — bounded in-flight budget + bounded queue; beyond
//!   it requests are shed with a typed `overloaded` error.
//! - [`deadline`] — per-request deadlines bridged into the solvers'
//!   cooperative cancellation points (`deadline_exceeded`).
//! - [`chaos`] — a seeded, deterministic fault plan for chaos testing
//!   the above (solver latency spikes, wire faults).

// The models need no unsafe code anywhere; enforced by mpmc-lint's
// unsafe_audit rule workspace-wide.
#![forbid(unsafe_code)]
// Library code must surface failures as errors, not panic; tests may
// still unwrap freely.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod admission;
pub mod chaos;
pub mod deadline;
pub mod errors;
pub mod json;
pub mod server;

pub use errors::{classify_model_error, exit_code, kind_name, ServiceError};
pub use server::{PredictionService, ServeOptions};
