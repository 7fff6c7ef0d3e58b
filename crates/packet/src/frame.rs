//! Pooled packet heads and DMA bodies for the node data-plane.
//!
//! The [`FrameArena`] models the register-insertion pipeline the
//! paper describes, instead of passing whole [`MicroPacket`] values
//! through every hop: a packet is **stored once** at its source into a
//! pooled frame, transit nodes forward the 8-byte [`FrameRef`] handle
//! and read the header fields in place ([`FrameArena::header`]), and
//! the delivery plane copies the packet back out
//! ([`FrameArena::decode`]). A frame holds the fields the source built —
//! control word, payload or DMA control, DMA data — never their wire
//! words, so no hop parses a header and no delivery rebuilds a packet.
//! The wire codec ([`MicroPacket::encode_into`],
//! [`FrameView`](crate::FrameView)) is the reference for the line
//! format and stays off this path.
//!
//! A frame is laid out as on the wire (slides 4–6): every MicroPacket
//! starts with the same 3 words — the control word and one 8-byte
//! field, a fixed cell's payload or a DMA cell's control — so every
//! frame takes a 24-byte head, and only a DMA frame also takes a
//! 64-byte body for its data words. A saturated ring of 3-word cells
//! holds heads and no bodies.
//!
//! Heads and bodies are recycled through free lists, so a steady-state
//! ring forwards packets with zero heap allocations. Frames carry a
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
//! // Source: store once into a pooled head (a fixed cell takes no body).
//! let frame = arena.insert(&pkt);
//! assert_eq!(arena.resident_bytes(), 24);
//!
//! // Transit: read the header in place, never the payload.
//! let (ctrl, dma) = arena.header(frame);
//! assert_eq!((ctrl.dst, dma), (5, None));
//!
//! // Delivery: copy the packet out of its frame.
//! assert_eq!(arena.decode(frame), pkt);
//!
//! // Strip: the head returns to the free list for the next insert.
//! arena.release(frame);
//! assert_eq!(arena.live(), 0);
//! ```

use crate::control::ControlWord;
use crate::types::{LengthClass, PacketType};
use crate::wire::{Body, DmaCtrl, MicroPacket, FIXED_PAYLOAD, MAX_DMA_PAYLOAD};

/// Handle to one pooled packet inside a [`FrameArena`].
///
/// Copyable and 8 bytes wide — this is what transit buffers and the
/// event queue carry instead of packet values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameRef {
    slot: u32,
    gen: u32,
}

/// The first 3 words of every MicroPacket, stored unpacked: control
/// word, liveness and generation, the 8-byte field that follows the
/// control word on the wire, and a DMA frame's body index.
#[derive(Debug, Clone)]
struct Head {
    ctrl: ControlWord,
    live: bool,
    gen: u32,
    /// A fixed frame's payload, or a DMA frame's control bytes.
    field: [u8; FIXED_PAYLOAD],
    /// A DMA frame's index into the bodies; unused by a fixed one.
    body: u32,
}

const _: () = assert!(std::mem::size_of::<Head>() <= 24);

/// The data words of a DMA frame.
type DmaBody = [u8; MAX_DMA_PAYLOAD];

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

/// A pool of frame heads, and of DMA bodies, with O(1) acquire/release.
#[derive(Debug, Clone)]
pub struct FrameArena {
    heads: Vec<Head>,
    free: Vec<u32>,
    bodies: Vec<DmaBody>,
    free_bodies: Vec<u32>,
    live: usize,
    /// Hard frame cap; `None` grows on demand.
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
            heads: Vec::new(),
            free: Vec::new(),
            bodies: Vec::new(),
            free_bodies: Vec::new(),
            live: 0,
            max_slots: None,
            stats: ArenaStats::default(),
        }
    }

    /// An arena pre-sized to `n` frames (still grows past it).
    pub fn with_capacity(n: usize) -> Self {
        let mut a = Self::new();
        a.heads.reserve(n);
        a.free.reserve(n);
        a
    }

    /// An arena hard-capped at `n` frames: [`FrameArena::try_insert`]
    /// returns `None` once every frame is live (exhaustion).
    pub fn bounded(n: usize) -> Self {
        let mut a = Self::with_capacity(n);
        a.max_slots = Some(n);
        a
    }

    /// Frames currently live.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Frames ever created (live + recycled).
    pub fn capacity(&self) -> usize {
        self.heads.len()
    }

    /// Bytes of frame storage ever created: every head, plus every
    /// DMA body.
    pub fn resident_bytes(&self) -> usize {
        self.heads.len() * std::mem::size_of::<Head>()
            + self.bodies.len() * std::mem::size_of::<DmaBody>()
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
            if self.heads.len() >= cap {
                return None;
            }
        }
        self.heads.push(Head {
            ctrl: ControlWord::new(PacketType::Data, 0, 0, 0),
            live: false,
            gen: 0,
            field: [0; FIXED_PAYLOAD],
            body: 0,
        });
        Some(self.heads.len() as u32 - 1)
    }

    /// A body for `data`: a released one if any is free, else a new one.
    fn store_body(&mut self, data: &DmaBody) -> u32 {
        match self.free_bodies.pop() {
            Some(b) => {
                self.bodies[b as usize] = *data;
                b
            }
            None => {
                self.bodies.push(*data);
                self.bodies.len() as u32 - 1
            }
        }
    }

    /// Store `pkt`, which must be well formed ([`MicroPacket::check`]:
    /// a frame's body is filed and freed by its packet type), into a
    /// pooled frame. `None` only for a [`FrameArena::bounded`] arena
    /// with every frame live. The arena sits below every door and checks
    /// nothing: this crate's constructors and decoders build only
    /// well-formed packets, and `Cluster::send_cell` checks the rest.
    pub fn try_insert(&mut self, pkt: &MicroPacket) -> Option<FrameRef> {
        let i = self.acquire()?;
        let (field, body) = match &pkt.body {
            Body::Fixed(p) => (*p, 0),
            Body::Variable { ctrl, data } => (ctrl.to_bytes(), self.store_body(data)),
        };
        let head = &mut self.heads[i as usize];
        head.ctrl = pkt.ctrl;
        head.field = field;
        head.body = body;
        head.live = true;
        self.live += 1;
        self.stats.acquired += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.live);
        Some(FrameRef { slot: i, gen: head.gen })
    }

    /// Store a well-formed `pkt` into a pooled frame; panics on exhaustion.
    #[expect(
        clippy::expect_used,
        reason = "arena exhaustion is a sizing bug caught at boot, not a runtime state; fail loud"
    )]
    pub fn insert(&mut self, pkt: &MicroPacket) -> FrameRef {
        self.try_insert(pkt).expect("frame arena exhausted")
    }

    fn head(&self, f: FrameRef) -> &Head {
        let h = &self.heads[f.slot as usize];
        assert!(
            h.live && h.gen == f.gen,
            "stale FrameRef: frame was released (slot {}, gen {} vs {})",
            f.slot,
            f.gen,
            h.gen
        );
        h
    }

    /// The header of a live frame: its control word and, for a DMA
    /// frame, its DMA control — everything a hop decides on, read from
    /// the head alone.
    pub fn header(&self, f: FrameRef) -> (ControlWord, Option<DmaCtrl>) {
        let h = self.head(f);
        let variable = h.ctrl.ptype.length_class() == LengthClass::Variable;
        (h.ctrl, variable.then(|| DmaCtrl::from_bytes(h.field)))
    }

    /// Copy the packet out of a live frame (delivery boundary; the
    /// frame stays live).
    pub fn decode(&self, f: FrameRef) -> MicroPacket {
        let h = self.head(f);
        let body = match self.header(f).1 {
            Some(ctrl) => Body::Variable {
                ctrl,
                data: self.bodies[h.body as usize],
            },
            None => Body::Fixed(h.field),
        };
        MicroPacket { ctrl: h.ctrl, body }
    }

    /// Return a frame, and a DMA frame's body, to the pool. Panics on
    /// double release.
    pub fn release(&mut self, f: FrameRef) {
        let h = &mut self.heads[f.slot as usize];
        assert!(
            h.live && h.gen == f.gen,
            "double release of FrameRef (slot {})",
            f.slot
        );
        h.live = false;
        h.gen = h.gen.wrapping_add(1);
        if h.ctrl.ptype.length_class() == LengthClass::Variable {
            self.free_bodies.push(h.body);
        }
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
    fn dma_frame_reusing_a_fixed_slot_takes_a_body_and_decodes_dma() {
        let mut a = FrameArena::new();
        let f = a.insert(&fixed(5));
        a.release(f);
        assert_eq!(a.resident_bytes(), 24, "a fixed frame takes no body");
        let f = a.insert(&dma(40));
        assert_eq!(a.capacity(), 1, "the fixed frame's slot is reused");
        assert_eq!(a.resident_bytes(), 24 + MAX_DMA_PAYLOAD);
        assert_eq!(a.decode(f), dma(40));
        a.release(f);
        let f = a.insert(&dma(64));
        assert_eq!(a.resident_bytes(), 24 + MAX_DMA_PAYLOAD, "the body is reused");
        assert_eq!(a.decode(f), dma(64));
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
        let _f1 = a.try_insert(&dma(8)).unwrap();
        assert!(a.try_insert(&fixed(2)).is_none(), "exhausted at the cap");
        assert!(a.try_insert(&dma(8)).is_none(), "a DMA frame counts against the cap");
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
    #[should_panic(expected = "stale FrameRef")]
    fn dma_decode_after_release_panics() {
        let mut a = FrameArena::new();
        let f = a.insert(&dma(64));
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
    #[should_panic(expected = "double release")]
    fn dma_double_release_panics() {
        let mut a = FrameArena::new();
        let f = a.insert(&dma(64));
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
