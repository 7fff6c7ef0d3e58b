//! # ampnet-phy — FC-0/FC-1 physical layer
//!
//! AmpNet's MicroPacket network sits directly on the Fibre Channel
//! physical layers (paper, slide 3): FC-0 provides the gigabit serial
//! medium, FC-1 the 8b/10b encode/decode. This crate reproduces both:
//!
//! * [`Encoder`]/[`Decoder`] — complete table-driven 8b/10b with
//!   running-disparity selection and checking, comma (K28.5) support,
//!   and the A7 alternate substitution.
//! * [`OrderedSet`] — K28.5-based framing words (IDLE, SOF fixed/
//!   variable, EOF, EOF-abort).
//! * [`Crc32`] — frame check sequence used by MicroPackets and the
//!   post-rostering diagnostics sweep.
//! * [`LinkParams`] — the timing model (1.0625 Gbaud serialization,
//!   fiber propagation).
//! * [`ErrorBurst`] — seeded line-error injection on encoded groups.

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

mod crc;
mod enc8b10b;
mod error;
mod link;
mod ordered;

pub use crc::{crc32, Crc32};
pub use enc8b10b::{
    cumulative_disparity, max_run_length, CodeError, Decoder, Disparity, Encoder, Symbol, K23_7,
    K27_7, K28_1, K28_5, K29_7, K30_7, VALID_K,
};
pub use error::ErrorBurst;
pub use link::{LinkParams, FC_GIGABIT_BAUD, FIBER_M_PER_S};
pub use ordered::OrderedSet;
