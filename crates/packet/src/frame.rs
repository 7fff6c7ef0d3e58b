//! Pooled packet slots for the node data-plane.
//!
//! The [`FrameArena`] models the register-insertion pipeline the
//! paper describes, instead of passing whole [`MicroPacket`] values
//! through every hop: a packet is **stored once** at its source into a
//! pooled slot, transit nodes forward the 8-byte [`FrameRef`] handle
//! and read the header fields in place ([`FrameArena::header`]), and
//! the delivery plane copies the packet back out
//! ([`FrameArena::decode`]). A slot holds the fields the source built —
//! control word, DMA control, payload bytes — never their wire words,
//! so no hop parses a header and no delivery rebuilds a packet. The
//! wire codec ([`MicroPacket::encode_into`], [`FrameView`](crate::FrameView))
//! is the reference for the line format and stays off this path.
//!
//! Slots are recycled through a free list, so a steady-state ring
//! forwards packets with zero heap allocations. Frames carry a
//! generation counter: using a released [`FrameRef`] panics
//! deterministically instead of aliasing another packet's bytes.
//!
//! ```
//! use ampnet_packet::{Body, ControlWord, FrameArena, MicroPacket, PacketType};
//!
//! let mut arena = FrameArena::new();
//! let ctrl = ControlWord::new(PacketType::Data, 2, 5, 7);
//! let pkt = MicroPacket::new(ctrl, Body::Fixed([0xAB; 8])).unwrap();
//!
//! // Source: store once into a pooled slot.
//! let frame = arena.insert(&pkt);
//!
//! // Transit: read the header in place, never the payload.
//! let (ctrl, dma) = arena.header(frame);
//! assert_eq!((ctrl.dst, dma), (5, None));
//!
//! // Delivery: copy the packet out of its slot.
//! assert_eq!(arena.decode(frame), pkt);
//!
//! // Strip: the slot returns to the free list for the next insert.
//! arena.release(frame);
//! assert_eq!(arena.live(), 0);
//! ```

use crate::control::ControlWord;
use crate::types::{LengthClass, PacketType};
use crate::wire::{Body, DmaCtrl, MicroPacket, FIXED_PAYLOAD, MAX_DMA_PAYLOAD};

/// Handle to one pooled packet inside a [`FrameArena`].
///
/// Copyable and 8 bytes wide — this is what transit buffers and the
/// event queue carry instead of ~84-byte packet values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameRef {
    slot: u32,
    gen: u32,
}

/// One pooled packet, stored unpacked: 5 + 1 + 4 + 8 + 64 bytes,
/// padded to the 84 of the 19-word wire slot it replaced (a queued
/// frame's memory sets `ring_saturated`'s peak RSS).
#[derive(Debug, Clone)]
struct Slot {
    ctrl: ControlWord,
    live: bool,
    gen: u32,
    /// DMA control of a variable frame; stale for a fixed one.
    dma: DmaCtrl,
    /// Payload bytes; a fixed frame uses the first [`FIXED_PAYLOAD`].
    payload: [u8; MAX_DMA_PAYLOAD],
}

const _: () = assert!(std::mem::size_of::<Slot>() <= 84);

impl Slot {
    /// The DMA control, for frames whose type is variable-length.
    fn dma(&self) -> Option<DmaCtrl> {
        match self.ctrl.ptype.length_class() {
            LengthClass::Variable => Some(self.dma),
            LengthClass::Fixed => None,
        }
    }
}

/// Allocation/reuse counters of a [`FrameArena`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Frames handed out in total.
    pub acquired: u64,
    /// Frames that reused a recycled slot (no heap growth).
    pub reused: u64,
    /// Frames released back to the pool.
    pub released: u64,
    /// Most frames simultaneously live.
    pub peak_live: usize,
}

/// A pool of fixed-size packet slots with O(1) acquire/release.
#[derive(Debug, Clone)]
pub struct FrameArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    /// Hard slot cap; `None` grows on demand.
    max_slots: Option<usize>,
    stats: ArenaStats,
}

impl Default for FrameArena {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameArena {
    /// An arena that grows on demand.
    pub fn new() -> Self {
        FrameArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            max_slots: None,
            stats: ArenaStats::default(),
        }
    }

    /// An arena pre-sized to `n` slots (still grows past it).
    pub fn with_capacity(n: usize) -> Self {
        let mut a = Self::new();
        a.slots.reserve(n);
        a.free.reserve(n);
        a
    }

    /// An arena hard-capped at `n` slots: [`FrameArena::try_insert`]
    /// returns `None` once every slot is live (exhaustion).
    pub fn bounded(n: usize) -> Self {
        let mut a = Self::with_capacity(n);
        a.max_slots = Some(n);
        a
    }

    /// Frames currently live.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Slots ever created (live + recycled).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Counters.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    fn acquire(&mut self) -> Option<u32> {
        if let Some(i) = self.free.pop() {
            self.stats.reused += 1;
            return Some(i);
        }
        if let Some(cap) = self.max_slots {
            if self.slots.len() >= cap {
                return None;
            }
        }
        self.slots.push(Slot {
            ctrl: ControlWord::new(PacketType::Data, 0, 0, 0),
            live: false,
            gen: 0,
            dma: DmaCtrl { channel: 0, region: 0, offset: 0, len: 0 },
            payload: [0; MAX_DMA_PAYLOAD],
        });
        Some(self.slots.len() as u32 - 1)
    }

    /// Store `pkt` into a pooled slot. `None` only for a
    /// [`FrameArena::bounded`] arena with every slot live.
    pub fn try_insert(&mut self, pkt: &MicroPacket) -> Option<FrameRef> {
        let i = self.acquire()?;
        let slot = &mut self.slots[i as usize];
        slot.ctrl = pkt.ctrl;
        match &pkt.body {
            Body::Fixed(p) => slot.payload[..FIXED_PAYLOAD].copy_from_slice(p),
            Body::Variable { ctrl, data } => {
                slot.dma = *ctrl;
                slot.payload = *data;
            }
        }
        slot.live = true;
        self.live += 1;
        self.stats.acquired += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.live);
        Some(FrameRef { slot: i, gen: slot.gen })
    }

    /// Store `pkt` into a pooled slot; panics on exhaustion.
    pub fn insert(&mut self, pkt: &MicroPacket) -> FrameRef {
        self.try_insert(pkt).expect("frame arena exhausted") // lint: allow(panic-freedom): arena exhaustion is a sizing bug caught at boot, not a runtime state; fail loud
    }

    fn slot(&self, f: FrameRef) -> &Slot {
        let s = &self.slots[f.slot as usize];
        assert!(
            s.live && s.gen == f.gen,
            "stale FrameRef: frame was released (slot {}, gen {} vs {})",
            f.slot,
            f.gen,
            s.gen
        );
        s
    }

    /// The header of a live frame: its control word and, for a DMA
    /// frame, its DMA control — everything a hop decides on, read in
    /// place.
    pub fn header(&self, f: FrameRef) -> (ControlWord, Option<DmaCtrl>) {
        let s = self.slot(f);
        (s.ctrl, s.dma())
    }

    /// Copy the packet out of a live frame (delivery boundary; the
    /// frame stays live).
    pub fn decode(&self, f: FrameRef) -> MicroPacket {
        let s = self.slot(f);
        let body = match s.dma() {
            Some(ctrl) => Body::Variable { ctrl, data: s.payload },
            None => Body::Fixed(std::array::from_fn(|i| s.payload[i])),
        };
        MicroPacket { ctrl: s.ctrl, body }
    }

    /// Return a frame's slot to the pool. Panics on double release.
    pub fn release(&mut self, f: FrameRef) {
        {
            let s = &self.slots[f.slot as usize];
            assert!(
                s.live && s.gen == f.gen,
                "double release of FrameRef (slot {})",
                f.slot
            );
        }
        let s = &mut self.slots[f.slot as usize];
        s.live = false;
        s.gen = s.gen.wrapping_add(1);
        self.live -= 1;
        self.stats.released += 1;
        self.free.push(f.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;
    use crate::control::BROADCAST;

    fn fixed(tag: u8) -> MicroPacket {
        build::data(1, 2, tag, [tag; 8])
    }

    fn dma(len: u16) -> MicroPacket {
        let payload: Vec<u8> = (0..len as usize).map(|i| i as u8).collect();
        build::dma(
            3,
            BROADCAST,
            0,
            DmaCtrl { channel: 2, region: 7, offset: 640, len: 0 },
            &payload,
        )
        .unwrap()
    }

    #[test]
    fn insert_view_decode_roundtrip() {
        let mut a = FrameArena::new();
        for pkt in [fixed(9), dma(1), dma(13), dma(64)] {
            let f = a.insert(&pkt);
            let (ctrl, dma) = a.header(f);
            assert_eq!(ctrl, pkt.ctrl);
            let dma_ctrl = match &pkt.body {
                Body::Variable { ctrl, .. } => Some(*ctrl),
                Body::Fixed(_) => None,
            };
            assert_eq!(dma, dma_ctrl);
            assert_eq!(a.decode(f), pkt, "copied-out packet bit-identical");
            a.release(f);
        }
    }

    #[test]
    fn fixed_frame_reusing_a_dma_slot_decodes_fixed() {
        let mut a = FrameArena::new();
        let f = a.insert(&dma(64));
        a.release(f);
        let f = a.insert(&fixed(5));
        assert_eq!(a.capacity(), 1);
        assert_eq!(a.header(f).1, None, "the stale DMA control is not read");
        assert_eq!(a.decode(f), fixed(5));
    }

    #[test]
    fn slots_are_reused_after_release() {
        let mut a = FrameArena::new();
        let f0 = a.insert(&fixed(0));
        a.release(f0);
        for tag in 1..100u8 {
            let f = a.insert(&fixed(tag));
            assert_eq!(a.header(f).0.tag, tag);
            a.release(f);
        }
        assert_eq!(a.capacity(), 1, "steady-state traffic reuses one slot");
        assert_eq!(a.stats().reused, 99);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn bounded_arena_exhausts_and_recovers() {
        let mut a = FrameArena::bounded(2);
        let f0 = a.try_insert(&fixed(0)).unwrap();
        let _f1 = a.try_insert(&fixed(1)).unwrap();
        assert!(a.try_insert(&fixed(2)).is_none(), "exhausted at the cap");
        a.release(f0);
        assert!(a.try_insert(&fixed(3)).is_some(), "release frees a slot");
        assert_eq!(a.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "stale FrameRef")]
    fn use_after_release_panics() {
        let mut a = FrameArena::new();
        let f = a.insert(&fixed(0));
        a.release(f);
        a.insert(&fixed(1)); // recycles the slot under a new generation
        a.header(f);
    }

    #[test]
    #[should_panic(expected = "stale FrameRef")]
    fn decode_after_release_panics() {
        let mut a = FrameArena::new();
        let f = a.insert(&fixed(0));
        a.release(f);
        a.decode(f);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let mut a = FrameArena::new();
        let f = a.insert(&fixed(0));
        a.release(f);
        a.release(f);
    }

    #[test]
    fn peak_live_tracks_high_water() {
        let mut a = FrameArena::new();
        let fs: Vec<FrameRef> = (0..5).map(|i| a.insert(&fixed(i))).collect();
        for f in fs {
            a.release(f);
        }
        a.insert(&fixed(9));
        assert_eq!(a.stats().peak_live, 5);
        assert_eq!(a.live(), 1);
    }
}
