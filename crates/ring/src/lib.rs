//! # ampnet-ring — register-insertion ring MAC
//!
//! The AmpNet data link (slides 7–8): a register-insertion ring where
//! every node can insert multiple concurrent streams, transit traffic
//! has absolute priority, sources strip their broadcasts after a full
//! tour, and an adaptive governor modulates each node's contribution
//! from its local view of the segment. The headline property — *a
//! simultaneous all-to-all broadcast never drops a packet* — is
//! structural here and asserted by experiment E4.
//!
//! The node data-plane is one fixed pipeline of two concrete planes,
//! like the router half of the NIU hardware it models (see `DESIGN.md`
//! §9):
//!
//! * [`SerialPhy`] — hop timing (the single owner of serialization and
//!   propagation delays) and the 8b/10b line-error model.
//! * [`RegisterMac`] — the register-insertion state machine itself
//!   (arrival handling, transmit selection, insertion rules,
//!   counters), operating on pooled [`WireFrame`]s.
//!
//! [`NodeStack`] composes the two with their telemetry, and both
//! drivers — `ampnet-core`'s `Cluster` and [`Segment`] here — take
//! every arrival through [`NodeStack::classify_arrival`]. What a
//! delivered frame becomes on the host is the driver's business.
//!
//! * [`StreamSet`] — deficit-round-robin multi-stream scheduler
//!   (slide 7).
//! * [`PacingMode`] — the AIMD insertion governor (slide 8) or none;
//!   ablation A1 toggles it.
//! * [`RingMeters`] — the access-wait and tour meters both drivers
//!   record through (`ring_access_ns`, `ring_tour_ns`).
//! * [`Segment`] — a standalone driver kept as the benchmark's
//!   `ring_saturated` fixture. The ring experiments (E3, E4, A1) and
//!   the MAC properties run on `Cluster`, fed by `ampnet_core::CellTraffic`.

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

mod mac;
mod meters;
mod pacing;
mod segment;
mod stack;
mod stream;

pub use mac::{
    classify, FrameClass, MacAction, MacTx, RegisterMac, RingNodeParams, RingNodeStats, WireFrame,
    MAX_PACKET_WIRE,
};
pub use meters::RingMeters;
pub use pacing::{AimdParams, PacingMode};
pub use segment::{Segment, SegmentParams, SegmentReport};
pub use stack::{NodeStack, SerialPhy, StackTelemetry, BURST_WINDOW_GROUPS};
pub use stream::{StreamId, StreamSet};
