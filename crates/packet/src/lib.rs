//! # ampnet-packet — MicroPacket technology
//!
//! AmpNet multiplexes all traffic — bulk data, cache updates, remote
//! interrupts, atomics, and the self-healing control plane — into small
//! *MicroPackets* (paper slides 3–6). Two wire formats exist: a fixed
//! 3-word cell and a variable DMA cell of up to 19 words, both framed
//! by SOF/EOF ordered sets from [`ampnet-phy`](ampnet_phy).
//!
//! * [`PacketType`] — the slide-4 type table (Rostering, Data, DMA,
//!   Interrupt, Diagnostic, D64 Atomic).
//! * [`ControlWord`] — Word 0 layout: type, flags, source,
//!   destination, tag.
//! * [`MicroPacket`]/[`Body`]/[`DmaCtrl`] — bodies and byte-exact
//!   encode/decode.
//! * [`build`] — typed constructors and payload views per type
//!   (atomic requests/responses, interrupts, diagnostics).

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

pub mod build;
mod control;
mod frame;
mod types;
mod wire;

pub use control::{ControlError, ControlWord, Flags, BROADCAST};
pub use frame::{ArenaStats, FrameArena, FrameRef};
pub use types::{LengthClass, PacketType};
pub use wire::{
    Body, DmaCtrl, FrameView, MicroPacket, PacketError, FIXED_PAYLOAD, FRAME_OVERHEAD,
    MAX_DMA_PAYLOAD, MAX_FRAME_WORDS, WORD,
};
