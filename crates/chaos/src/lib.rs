//! # ampnet-chaos — scripted fault storms with machine-checked guarantees
//!
//! AmpNet's headline claims are availability claims: a simultaneous
//! all-to-all broadcast never drops packets (slides 7–8), failures are
//! detected in milliseconds and the ring self-heals in about two ring
//! tours (slides 16–18), and applications fail over with "no down time
//! and no loss of data" (slide 19). This crate turns those claims into
//! executable invariants checked from *outside* the stack.
//!
//! A [`Scenario`] is a timed fault schedule — node crashes, switch
//! failures, fiber cuts, repairs, rejoins, phy-level bit-error bursts —
//! interleaved with traffic generators (all-to-all messaging,
//! ping-pong, cache write storms, semaphore contention, seqlock
//! probes, a replicated-counter failover app). The engine runs the
//! schedule on a [`Harness`] — a deterministic [`ampnet_core::Cluster`],
//! an external delivery [`Ledger`] of uniquely tagged payloads, crash
//! dooming and the [`Invariant`] runner, shared with `ampnet-load` —
//! and checks [`standard_invariants`] (or your own) after every step.
//! [`multiseg::MultiSegScenario`] scripts a multi-segment network in
//! the same [`FaultOp`] vocabulary.
//!
//! ```
//! use ampnet_chaos::{Scenario, FaultOp, Traffic};
//! use ampnet_core::{ClusterConfig, SimDuration};
//!
//! let scenario = Scenario::builder(ClusterConfig::small(6).with_seed(7))
//!     .traffic(Traffic::all_to_all())
//!     .fault_in(SimDuration::from_millis(10), FaultOp::CrashNode(3))
//!     .standard_invariants()
//!     .build();
//! let report = scenario.run();
//! assert!(report.ok(), "{}", report.summary());
//! ```
//!
//! [`Scenario::sweep`] replays the same schedule under many seeds;
//! a failing seed is shrunk to a minimal fault schedule and returned
//! with the full [`ampnet_core::Trace`] dump and the deterministic
//! trace digest for replay.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod engine;
mod harness;
mod invariant;
mod ledger;
pub mod multiseg;
mod scenario;
mod sweep;

pub use engine::{apply_fault_schedule, RunReport, Violation};
pub use harness::Harness;
pub use invariant::{
    standard_invariants, CheckCtx, FailoverWithinPolicy, Invariant, LosslessDelivery,
    MutualExclusion, NoDuplicates, Phase, ReconvergenceBound, RingDrops, SeqlockCoherence,
    StateConservation,
};
pub use ledger::Ledger;
pub use scenario::{FaultEvent, FaultOp, Scenario, ScenarioBuilder, Traffic};
pub use sweep::{FailureCase, SweepOutcome};
