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
//! drivers — [`Segment`] here and `ampnet-core`'s `Cluster` — take
//! every arrival through [`NodeStack::classify_arrival`]. What a
//! delivered frame becomes on the host is the driver's business.
//!
//! * [`StreamSet`] — deficit-round-robin multi-stream scheduler
//!   (slide 7).
//! * [`InsertionGovernor`]/[`PacingMode`] — AIMD flow control
//!   (slide 8); ablation A1 toggles it.
//! * [`Segment`] — standalone discrete-event driver with the paper's
//!   workloads and measurement (goodput, fairness, tour latency).

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
mod pacing;
mod segment;
mod stack;
mod stream;

pub use mac::{
    classify, FrameClass, MacAction, MacTx, RegisterMac, RingNodeParams, RingNodeStats, WireFrame,
    MAX_PACKET_WIRE,
};
pub use pacing::{AimdParams, InsertionGovernor, PacingMode};
pub use segment::{
    ArrivalProcess, DstPattern, PacketKind, Segment, SegmentParams, SegmentReport, StreamWorkload,
};
pub use stack::{NodeStack, SerialPhy, StackTelemetry, BURST_WINDOW_GROUPS};
pub use stream::{StreamId, StreamSet};
