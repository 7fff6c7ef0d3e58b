//! # ampnet-load — production-shaped load behind the cluster
//!
//! The ROADMAP's north star talks about "millions of users", but a
//! cluster simulation can only hold tens of *nodes*. This crate closes
//! the gap the way load-testing rigs do: it models a large client
//! population *behind* the cluster as open-loop arrival processes
//! ([`ArrivalProcess`]: Poisson, heavy-tailed Pareto, diurnal ramp)
//! over a deterministic seeded RNG, and fans the resulting operation
//! stream through the real `ampnet-services` endpoints — AmpSubscribe
//! pub/sub, AmpFiles read/write mixes, AmpIP request/reply, AmpThreads
//! RPC and network-semaphore contention storms.
//!
//! Arrivals are counted at full population fidelity; execution uses
//! *batched dispatch* (each tick drives at most a fixed number of
//! service operations per class, each standing for a share of that
//! tick's modeled arrivals), so a 1M-client cell costs the same
//! simulated work as a 1k-client cell while the offered-load
//! accounting stays honest.
//!
//! Every class tracks end-to-end latency in a telemetry
//! [`ampnet_telemetry::Histogram`] and is judged against declarative
//! [`SloSpec`]s — `p99 ≤ X`, delivered fraction ≥ Y, bounded
//! degraded-throughput window — yielding pass/fail [`SloVerdict`]s in
//! a [`LoadReport`]. A run is a driver on the chaos
//! [`ampnet_chaos::Harness`]: it composes with `ampnet-chaos` fault
//! schedules ([`LoadSpec::faults`]) and is checked by
//! [`ampnet_chaos::standard_invariants`]; the same seed always yields
//! a byte-identical report ([`LoadReport::to_json`]).
//!
//! ```
//! use ampnet_core::ClusterConfig;
//! use ampnet_load::{ArrivalProcess, LoadSpec};
//!
//! let spec = LoadSpec::standard(32_000, ArrivalProcess::Poisson);
//! let report = ampnet_load::run(ClusterConfig::small(6).with_seed(0xA3B1), &spec);
//! assert!(report.all_slos_pass(), "{}", report.summary());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrival;
pub mod catalog;
pub mod engine;
pub mod report;
pub mod slo;

pub use arrival::{ArrivalGen, ArrivalProcess};
pub use catalog::{reference_doc, WorkloadDef, ALL};
pub use engine::{run, run_with, LoadSpec};
pub use report::{ClassStats, LoadReport};
pub use slo::{SloSpec, SloVerdict};
