//! # ampnet-check — explicit-state model checking for AmpNet protocols
//!
//! Seeded simulation and the chaos sweeps *sample* the schedule space;
//! this crate *enumerates* it. Every protocol state machine in the
//! workspace is sans-IO (no wall clock, no ambient randomness — the
//! root `clippy.toml` bans enforce that), so
//! each can be driven as an explicit transition system: initial
//! states, enabled actions, a deterministic successor function. The
//! checker walks the bounded state graph breadth-first, dedups on
//! FNV-64 fingerprints (the same [`ampnet_sim::Fnv64`] the trace
//! digests use), and — because BFS — reconstructs a *shortest*
//! counterexample trace when a property fails, printed in the chaos
//! engine's flight-recorder style.
//!
//! Five shipped models exercise the paper's headline guarantees
//! against the **real crate code** (not re-implementations):
//!
//! * [`models::seqlock`] — the slide-9 two-counter message seqlock
//!   ([`ampnet_cache::seqlock_msg`]): no torn read is ever exposed.
//! * [`models::semaphore`] — slide-10 D64 network semaphores
//!   ([`ampnet_cache::SemaphoreClient`] + [`ampnet_cache::atomics`]):
//!   mutual exclusion and completion under message loss and
//!   retransmission.
//! * [`models::roster`] — detect → roster → recover
//!   ([`ampnet_roster`] + [`ampnet_dk`]): exactly one surviving
//!   roster master and one new application leader, under dropped
//!   Rostering tokens.
//! * [`models::arena`] — the `Deliver`/`Strip`/loan frame-ownership
//!   protocol ([`ampnet_packet::FrameArena`] + [`ampnet_ring::classify`]):
//!   no use-after-release, no slot leak.
//! * [`models::planner`] — the adaptive slice-planner decision
//!   ([`ampnet_core::plan_boundary`] via [`ampnet_core::SlicePlanner`]):
//!   no crossing delivered past its maturity, no shard starves, and
//!   the dead-air-skip / quiescent-wake paths are genuinely reachable.
//!
//! Each model also ships deliberately-broken mutation variants
//! (single-counter seqlock, split test-then-set, release without a
//! generation bump, a planner that forgets the crossing clamp). The checker finding those — with a printed
//! shortest trace — is its own self-test: it proves the green runs are
//! green because the protocols are right, not because the checker is
//! blind.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod channel;
mod explore;
mod model;
pub mod models;

pub use channel::FifoChannel;
pub use explore::{check, CheckOptions, CheckReport, Counterexample, TraceStep};
pub use model::{symmetric_fingerprint, FnvHasher, Model, Property, PropertyKind};
