//! Core modeling framework of *Performance and Power Modeling in a
//! Multi-Programmed Multi-Core Environment* (Chen, Xu, Dick, Mao —
//! DAC 2010).
//!
//! Three models, as in the paper:
//!
//! 1. **Performance model** (§3): [`histogram`], [`spi`], [`occupancy`],
//!    [`equilibrium`], [`feature`], [`perf`] — predict effective cache
//!    sizes, miss ratios, and throughput of co-scheduled processes from
//!    per-process profiles only.
//! 2. **Power model** (§4): [`power`] (Eq. 9 via MVLR, plus the NN
//!    comparator) and [`sharing`] (time sharing, Eq. 10).
//! 3. **Combined model** (§5): [`assignment`] — power estimation for a
//!    tentative process-to-core mapping before it runs (Fig. 1, Eq. 11).
//!
//! Profiling lives in [`profile`]: the stressmark-driven feature-vector
//! extraction of §3.4, executed on the `cmpsim` substrate. Profiles can
//! be saved and reloaded through [`persist`] so the expensive profiling
//! pass runs once per process.
//!
//! # Examples
//!
//! Predict the slowdown of two processes sharing a 16-way cache:
//!
//! ```
//! use mpmc_model::feature::FeatureVector;
//! use mpmc_model::perf::PerformanceModel;
//! use cmpsim::machine::MachineConfig;
//! use workloads::spec::SpecWorkload;
//!
//! # fn main() -> Result<(), mpmc_model::ModelError> {
//! let machine = MachineConfig::four_core_server();
//! let mcf = FeatureVector::from_workload(&SpecWorkload::Mcf.params(), &machine)?;
//! let gzip = FeatureVector::from_workload(&SpecWorkload::Gzip.params(), &machine)?;
//! let pred = PerformanceModel::new(16).predict(&[mcf, gzip])?;
//! assert!(pred[0].ways + pred[1].ways <= 16.0 + 1e-6);
//! # Ok(())
//! # }
//! ```

// The models need no unsafe code anywhere; enforced by mpmc-lint's
// unsafe_audit rule workspace-wide.
#![forbid(unsafe_code)]
// Library code must surface failures as `ModelError`, not panic; tests
// may still unwrap freely.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod assignment;
pub mod crosscheck;
pub mod eqcache;
pub mod equilibrium;
pub mod feature;
pub mod histogram;
pub mod occupancy;
pub mod optimize;
pub mod perf;
pub mod persist;
pub mod power;
pub mod profile;
pub mod sharing;
pub mod spi;
pub mod validate;

mod corun;
mod error;

pub use error::ModelError;
