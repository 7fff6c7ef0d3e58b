//! Pooled zero-copy wire buffers for the node data-plane.
//!
//! The [`FrameArena`] models the register-insertion pipeline the
//! paper describes, instead of passing whole [`MicroPacket`] values
//! through every hop and heap-serializing them each time: a packet
//! is serialized **once** at its source into a pooled frame slot
//! ([`MicroPacket::encode_into`]), transit nodes forward the 8-byte
//! [`FrameRef`] handle, and only the delivery plane materializes a
//! packet again — via the borrowing [`FrameView`] /
//! [`MicroPacket::decode_ref`] path.
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
//! // Source: serialize once into a pooled slot.
//! let frame = arena.insert(&pkt);
//!
//! // Transit/delivery: borrow the words, never copy the payload.
//! let view = arena.view(frame);
//! assert_eq!(view.ctrl.dst, 5);
//! assert_eq!(view.to_packet(), pkt);
//!
//! // Strip: the slot returns to the free list for the next insert.
//! arena.release(frame);
//! assert_eq!(arena.live(), 0);
//! ```

use crate::control::ControlWord;
use crate::types::LengthClass;
use crate::wire::{DmaCtrl, MicroPacket, PacketError, FIXED_PAYLOAD, WORD};

/// Largest MicroPacket in transmission words (control + 2 DMA control
/// + 16 payload words): the size of one arena slot.
pub const MAX_FRAME_WORDS: usize = 19;

/// Handle to one serialized packet inside a [`FrameArena`].
///
/// Copyable and 8 bytes wide — this is what transit buffers and the
/// event queue carry instead of ~100-byte packet values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameRef {
    slot: u32,
    gen: u32,
}

/// A borrowed, decoded view over serialized packet words.
///
/// Parsing validates the header exactly like [`MicroPacket::decode`]
/// but borrows the payload instead of copying it into fresh arrays.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    /// Word 0, decoded.
    pub ctrl: ControlWord,
    /// DMA control words for variable frames.
    pub dma: Option<DmaCtrl>,
    /// Payload words (2 for fixed frames, `ceil(len/4)` for DMA).
    payload: &'a [u32],
}

impl<'a> FrameView<'a> {
    /// Parse serialized words (as produced by
    /// [`MicroPacket::encode_into`]) without copying the payload.
    pub fn parse(words: &'a [u32]) -> Result<FrameView<'a>, PacketError> {
        if words.len() < 3 {
            return Err(PacketError::BadSize(words.len() * WORD));
        }
        let ctrl = ControlWord::from_bytes(words[0].to_be_bytes())?;
        match ctrl.ptype.length_class() {
            LengthClass::Fixed => {
                if words.len() != 3 {
                    return Err(PacketError::BadSize(words.len() * WORD));
                }
                Ok(FrameView {
                    ctrl,
                    dma: None,
                    payload: &words[1..3],
                })
            }
            LengthClass::Variable => {
                if words.len() < 4 {
                    return Err(PacketError::BadSize(words.len() * WORD));
                }
                let mut dma_bytes = [0u8; 8];
                dma_bytes[..4].copy_from_slice(&words[1].to_be_bytes());
                dma_bytes[4..].copy_from_slice(&words[2].to_be_bytes());
                let dma = DmaCtrl::from_bytes(dma_bytes);
                if dma.len == 0 || dma.len as usize > crate::wire::MAX_DMA_PAYLOAD {
                    return Err(PacketError::BadDmaLen(dma.len));
                }
                let n = (dma.len as usize).div_ceil(WORD);
                if words.len() != 3 + n {
                    return Err(PacketError::BadSize(words.len() * WORD));
                }
                Ok(FrameView {
                    ctrl,
                    dma: Some(dma),
                    payload: &words[3..],
                })
            }
        }
    }

    /// Payload-bearing transmission words (control word included).
    pub fn words(&self) -> usize {
        1 + self.dma.is_some() as usize * 2 + self.payload.len()
    }

    /// Total line bytes including SOF/EOF framing.
    pub fn wire_bytes(&self) -> usize {
        (self.words() + 2) * WORD
    }

    /// Application payload bytes carried.
    pub fn payload_bytes(&self) -> usize {
        match self.dma {
            Some(d) => d.len as usize,
            None => FIXED_PAYLOAD,
        }
    }

    /// Materialize a [`MicroPacket`] — the delivery-plane boundary,
    /// where a real NIU would DMA the frame into host memory.
    pub fn to_packet(&self) -> MicroPacket {
        match self.dma {
            None => {
                let mut p = [0u8; FIXED_PAYLOAD];
                p[..4].copy_from_slice(&self.payload[0].to_be_bytes());
                p[4..].copy_from_slice(&self.payload[1].to_be_bytes());
                MicroPacket::new(self.ctrl, crate::wire::Body::Fixed(p)).expect("parsed frame") // lint: allow(panic-freedom): the words were written by encode_into, so re-parsing is total
            }
            Some(dma) => {
                let mut data = [0u8; crate::wire::MAX_DMA_PAYLOAD];
                for (w, chunk) in self.payload.iter().zip(data.chunks_exact_mut(WORD)) {
                    chunk.copy_from_slice(&w.to_be_bytes());
                }
                MicroPacket::new(
                    self.ctrl,
                    crate::wire::Body::Variable { ctrl: dma, data },
                )
                .expect("parsed frame") // lint: allow(panic-freedom): the frame was produced by encode_into, so rebuilding the packet is total
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Slot {
    words: [u32; MAX_FRAME_WORDS],
    len: u8,
    gen: u32,
    live: bool,
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

/// A pool of fixed-size wire-frame slots with O(1) acquire/release.
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
            words: [0; MAX_FRAME_WORDS],
            len: 0,
            gen: 0,
            live: false,
        });
        Some(self.slots.len() as u32 - 1)
    }

    fn commit(&mut self, i: u32, len: usize) -> FrameRef {
        let slot = &mut self.slots[i as usize];
        slot.len = len as u8;
        slot.live = true;
        self.live += 1;
        self.stats.acquired += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.live);
        FrameRef { slot: i, gen: slot.gen }
    }

    /// Serialize `pkt` into a pooled slot. `None` only for a
    /// [`FrameArena::bounded`] arena with every slot live.
    pub fn try_insert(&mut self, pkt: &MicroPacket) -> Option<FrameRef> {
        let i = self.acquire()?;
        let len = pkt
            .encode_into(&mut self.slots[i as usize].words)
            .expect("slot fits the largest MicroPacket"); // lint: allow(panic-freedom): slots are sized to MAX_PACKET_WIRE by construction
        Some(self.commit(i, len))
    }

    /// Serialize `pkt` into a pooled slot; panics on exhaustion.
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

    /// The serialized words of a live frame.
    pub fn words(&self, f: FrameRef) -> &[u32] {
        let s = self.slot(f);
        &s.words[..s.len as usize]
    }

    /// Borrowing decoded view of a live frame.
    pub fn view(&self, f: FrameRef) -> FrameView<'_> {
        FrameView::parse(self.words(f)).expect("live frames hold valid packets") // lint: allow(panic-freedom): live generation-checked frames were encoded by this arena; parse is total on them
    }

    /// Materialize the packet (delivery boundary; frame stays live).
    pub fn decode(&self, f: FrameRef) -> MicroPacket {
        self.view(f).to_packet()
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
            let v = a.view(f);
            assert_eq!(v.ctrl, pkt.ctrl);
            assert_eq!(v.words(), pkt.words());
            assert_eq!(v.wire_bytes(), pkt.wire_bytes());
            assert_eq!(v.payload_bytes(), pkt.payload_bytes());
            assert_eq!(a.decode(f), pkt, "materialized packet bit-identical");
            a.release(f);
        }
    }

    #[test]
    fn slots_are_reused_after_release() {
        let mut a = FrameArena::new();
        let f0 = a.insert(&fixed(0));
        a.release(f0);
        for tag in 1..100u8 {
            let f = a.insert(&fixed(tag));
            assert_eq!(a.view(f).ctrl.tag, tag);
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
        a.view(f);
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
    fn view_parse_rejects_garbage() {
        assert!(FrameView::parse(&[]).is_err());
        assert!(FrameView::parse(&[0xFFFF_FFFF, 0, 0]).is_err(), "bad control");
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
