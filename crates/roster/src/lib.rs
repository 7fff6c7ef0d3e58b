//! # ampnet-roster — the self-healing rostering algorithm
//!
//! Slides 13, 16, 18: when hardware detects a failure, a "modified
//! flooding algorithm explores the network for available paths and
//! allows the creation of the largest possible logical ring",
//! completing "in two ring-tour times — 1 to 2 milliseconds, depending
//! on the number of nodes and the length of the fiber".
//!
//! * [`RosterParams`] — the calibrated timing model (ColdFire
//!   processing, loss-of-light window, probe timeouts, heartbeats).
//! * [`detect`]/[`Detection`] — hardware loss-of-light and heartbeat
//!   failure detection against the live ring.
//! * [`run_rostering`]/[`RosterOutcome`] — the two-tour protocol with
//!   full microsecond accounting; [`initial_rostering`] boots a plant
//!   and [`planned_rostering`] extends a live ring (join, repair).
//!
//! The committed ring is provably maximal: the master's computation is
//! the exact solver from [`ampnet_topo`], and `RosterOutcome::ring`
//! always validates against the post-failure topology.

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

mod detect;
mod params;
mod protocol;

pub use detect::{detect, elect_flooding_master, elect_master, Detection};
pub use params::RosterParams;
pub use protocol::{
    initial_rostering, planned_rostering, run_rostering, RosterOutcome, RosterSkip,
};
