//! # ampnet-sim — deterministic discrete-event simulation kernel
//!
//! The AmpNet reproduction measures protocol-level time (rostering
//! completes in two ring-tour times; failover takes milliseconds), so
//! the whole network runs inside a deterministic discrete-event
//! simulation. This crate is the kernel every other crate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution clock.
//! * [`EventQueue`] — deterministic future-event list: one binary
//!   heap that breaks same-instant ties by the event's [`TieClass`],
//!   then first in first out, and whose pop is fused with the next
//!   schedule. Timers are retired by stamp in the handlers, not
//!   cancelled in the queue.
//! * [`Sim`] — executor: clock + queue + seeded randomness.
//! * [`SimRng`] — labelled ChaCha8 streams; independent randomness per
//!   subsystem so experiments are reproducible and comparable.
//! * [`Histogram`], [`jain_fairness`] — the measurement primitives
//!   the benchmark harness reports.
//! * [`Fnv64`] — the shared fingerprint for trace digests, run
//!   digests and model-checker state dedup.
//!
//! Determinism contract: for a fixed seed and identical inputs, every
//! simulation in this workspace produces bit-identical results. Nothing
//! in this crate reads wall-clock time or global state.

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

mod digest;
mod queue;
mod rng;
mod sim;
mod stats;
mod time;

pub use digest::{fnv64, Fnv64};
pub use queue::{EventId, EventQueue, TieClass, EVENT_BYTES};
// Test support for `tests/queue_differential.rs`: the seeded queue
// defects its in-file model must catch.
#[doc(hidden)]
pub use queue::QueueMutation;
pub use rng::SimRng;
pub use sim::Sim;
pub use stats::{jain_fairness, Histogram};
pub use time::{SimDuration, SimTime};

// Shard-confinement contract for the parallel multi-segment engine:
// every kernel type is `Send`, so a whole simulator (and the `Cluster`
// built on it) can be moved to — and advanced by — a worker thread.
// None of them is shared between threads (`Sync` is not required); each
// shard's kernel is owned by exactly one worker per time slice. These
// compile-time assertions keep a stray `Rc`/`RefCell` from silently
// re-entering the kernel and breaking the threaded engine.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<Sim<u64>>();
const _: () = _assert_send::<EventQueue<u64>>();
const _: () = _assert_send::<SimRng>();
