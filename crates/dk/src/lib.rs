//! # ampnet-dk — the AmpNet Distributed Kernel
//!
//! Slide 17's per-NIC real-time kernel and slides 18–19's availability
//! machinery:
//!
//! * [`Version`]/[`CompatPolicy`] — network-wide version and feature
//!   compatibility enforcement for joining nodes.
//! * [`assimilate`] — the assimilation rules (self-boot → diagnostics
//!   → version check → cache refresh → CRC certification → online)
//!   with full phase timing, swept by experiment E9.
//! * [`ControlGroup`] — redundant application instances ranked by
//!   qualification, with the online set every survivor decides from.
//! * [`FailoverEngine`] — millisecond application failure detection,
//!   the application-definable failover period, best-qualified
//!   takeover and recovery rules (experiment E10).

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

mod failover;
mod group;
mod lifecycle;
mod version;

pub use failover::{
    FailoverEngine, FailoverPhase, FailoverPolicy, FailoverReport, RecoveryRule,
};
pub use group::{ControlGroup, GroupError, GroupId, Member};
pub use lifecycle::{
    assimilate, AssimilationFailure, AssimilationParams, AssimilationTimeline, JoinRequest,
};
pub use version::{CompatPolicy, Features, Rejection, Version};
