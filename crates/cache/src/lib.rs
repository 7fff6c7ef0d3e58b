//! # ampnet-cache — the AmpNet network cache
//!
//! "The AmpNet network is also a computer" (slide 2): every NIC holds a
//! replica of a shared cache; writes broadcast, reads are local, the
//! management database lives in it, and nodes that join are brought
//! current with a cache refresh. This crate implements that whole
//! stack:
//!
//! * [`NetworkCache`] — region table + replicated byte store, DMA
//!   update packets, CRC audits, convergence checks.
//! * [`seqlock_msg`] — slide 9's two-Lamport-counter consistency
//!   protocol at message granularity (plus the unguarded read used by
//!   ablation A2).
//! * [`atomics`] — D64 Atomic execution at a word's home node.
//! * [`SemaphoreClient`] — binary network semaphores (slide 10) as a
//!   sans-IO client state machine with deterministic backoff.
//! * [`host`] — the same two-counter discipline against real memory:
//!   a safe `AtomicU64`-based seqlock and the write-through registered
//!   region, stress-tested under real threads.
//! * [`refresh`] — assimilation-by-cache-refresh (slides 2, 17–18)
//!   with CRC certification.

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

pub mod atomics;
pub mod host;
pub mod refresh;
pub mod seqlock_msg;
mod semaphore;
mod store;

pub use semaphore::{
    BackoffPolicy, LockState, SemaphoreAction, SemaphoreAddr, SemaphoreClient,
};
pub use store::{CacheError, NetworkCache, RegionId};
