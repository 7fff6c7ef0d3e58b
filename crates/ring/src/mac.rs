//! The insertion-MAC plane: register-insertion logic over wire-frame
//! descriptors.
//!
//! Classic register insertion (slide 8, "a variant of a register
//! insertion ring") with AmpNet's adaptations:
//!
//! * **Transit priority.** Packets in flight around the ring are never
//!   blocked by local traffic: the output port always serves the
//!   insertion (transit) buffer first.
//! * **Insert-when-empty rule.** A node may start inserting its own
//!   packet only while its insertion buffer is empty. While the
//!   insertion is on the wire, at most one maximum-size packet can
//!   finish arriving from upstream plus one more already in flight, so
//!   an insertion buffer of `2 × MAX_PACKET` bytes structurally cannot
//!   overflow — this is the "guaranteed not to drop packets even under
//!   all-to-all broadcast" property. The node still counts hypothetical
//!   overflows (`would_drop`) so experiments can assert the guarantee.
//! * **Source stripping.** Broadcast packets circulate one full tour
//!   and are removed by their source; unicast packets are removed by
//!   their destination (spatial reuse).
//! * **Adaptive contribution** (see [`crate::pacing`]): the node
//!   watches its own insertion-buffer high-water mark and modulates its
//!   insertion rate.
//!
//! The MAC never touches packet payloads: it operates on [`WireFrame`]
//! descriptors — the control word, cached sizes, and a [`FrameRef`]
//! into the packet pool — so forwarding a packet moves 16 bytes (the
//! descriptor's size, asserted below) and zero heap. An own fixed cell
//! waits in its stream or urgent queue as the same 16 bytes, its field
//! held in place of the handle, and takes a pooled frame only when the
//! driver sends it ([`WireFrame::pool`]).

use crate::pacing::{InsertionGovernor, PacingMode};
use crate::stream::{StreamId, StreamSet};
use ampnet_packet::{ControlWord, Flags, FrameArena, FrameRef, MicroPacket, FIXED_PAYLOAD, WORD};
use ampnet_sim::SimTime;
use std::collections::VecDeque;

/// Largest MicroPacket on the wire (full DMA cell), bytes.
pub const MAX_PACKET_WIRE: usize = 84;

/// Configuration of one ring MAC.
#[derive(Debug, Clone, Copy)]
pub struct RingNodeParams {
    /// Insertion (transit) buffer capacity in bytes. The structural
    /// no-drop bound is `2 × MAX_PACKET_WIRE`; the default adds slack
    /// for measurement.
    pub transit_capacity: usize,
    /// Insertion pacing policy.
    pub pacing: PacingMode,
    /// Number of local transmit streams, at least 1
    /// ([`StreamSet::new`](crate::StreamSet::new) panics on 0). Each
    /// backlogged stream gets an equal share of the node's insertions,
    /// in bytes.
    pub n_streams: usize,
}

impl Default for RingNodeParams {
    fn default() -> Self {
        RingNodeParams {
            transit_capacity: 2 * MAX_PACKET_WIRE,
            pacing: PacingMode::Adaptive(Default::default()),
            n_streams: 4,
        }
    }
}

/// MAC counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct RingNodeStats {
    /// Own packets inserted onto the segment.
    pub inserted: u64,
    /// Transit packets forwarded.
    pub forwarded: u64,
    /// Packets delivered to this node (unicast + broadcast copies).
    pub delivered: u64,
    /// Own packets stripped after a full tour.
    pub stripped: u64,
    /// Times the insertion buffer would have overflowed. The paper's
    /// guarantee is that this is always zero.
    pub would_drop: u64,
    /// Peak insertion-buffer occupancy in bytes.
    pub transit_highwater: usize,
    /// Delivered payload bytes.
    pub delivered_payload_bytes: u64,
}

/// Descriptor of one packet: the control word, the sizes every MAC
/// decision needs, and a handle to the pooled frame. Transit buffers
/// and stream queues carry it; arrival events carry only the
/// [`FrameRef`], and the receiving stack rebuilds the descriptor with
/// [`WireFrame::of`].
///
/// An own fixed-format cell (every type but DMA) may wait in its send
/// queue unpooled, its 8-byte field held in `frame`
/// ([`WireFrame::queued`]); the driver pools it as it sends it
/// ([`WireFrame::pool`]). A frame that arrives from the wire, and so
/// every transit frame, is pooled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireFrame {
    /// Word 0, as the source built it.
    pub ctrl: ControlWord,
    /// Total line bytes including SOF/EOF (serialization cost).
    pub wire_bytes: u8,
    /// Application payload bytes carried (delivery accounting).
    pub payload_bytes: u8,
    /// Whether `frame` names a pooled frame or holds a cell's field.
    pub(crate) pooled: bool,
    /// The pooled packet in the segment's [`FrameArena`] — or, for a
    /// cell not pooled yet, its field ([`FrameRef::holding`]), which
    /// names no frame: see [`WireFrame::pool`].
    pub frame: FrameRef,
}

// Every MicroPacket's sizes fit the `u8` fields (84 wire bytes at
// most), and the descriptor a transit buffer or stream queue holds per
// frame stays at 16 bytes.
const _: () = assert!(MAX_PACKET_WIRE <= u8::MAX as usize);
const _: () = assert!(std::mem::size_of::<WireFrame>() == 16);

impl WireFrame {
    /// Store `pkt` into `arena` — the *single* copy of a packet's
    /// life, at its source — and describe it. `pkt` must be well formed.
    pub fn insert(arena: &mut FrameArena, pkt: &MicroPacket) -> WireFrame {
        WireFrame {
            ctrl: pkt.ctrl,
            wire_bytes: pkt.wire_bytes() as u8,
            payload_bytes: pkt.payload_bytes() as u8,
            pooled: true,
            frame: arena.insert(pkt),
        }
    }

    /// The descriptor a well-formed own `pkt` waits in its send queue
    /// as: a fixed-format cell is a value, its field held in the
    /// descriptor and nothing pooled; a DMA packet is stored into
    /// `arena` now ([`WireFrame::insert`]), since its body needs a home
    /// and 16 bytes hold no more than its DMA control.
    pub fn queued(arena: &mut FrameArena, pkt: &MicroPacket) -> WireFrame {
        match pkt.fixed_payload() {
            Some(&field) => WireFrame {
                ctrl: pkt.ctrl,
                wire_bytes: pkt.wire_bytes() as u8,
                payload_bytes: pkt.payload_bytes() as u8,
                pooled: false,
                frame: FrameRef::holding(field),
            },
            None => WireFrame::insert(arena, pkt),
        }
    }

    /// The pooled frame of an own frame going on the wire: a held cell
    /// is stored into `arena` now, from its control word and field
    /// ([`FrameArena::insert_cell`]); a pooled frame is already there.
    #[inline]
    pub fn pool(self, arena: &mut FrameArena) -> FrameRef {
        if self.pooled {
            self.frame
        } else {
            arena.insert_cell(self.ctrl, self.frame.held())
        }
    }

    /// Describe an already-pooled frame from its header fields, read
    /// in place (generation-checked, nothing parsed). A pooled packet
    /// is well formed (see [`FrameArena::try_insert`]), so its sizes
    /// fit their `u8` fields.
    pub fn of(arena: &FrameArena, frame: FrameRef) -> WireFrame {
        let (ctrl, dma) = arena.header(frame);
        // Control word + DMA control + ceil(len/4) payload words, or
        // control word + two fixed payload words; SOF/EOF on top.
        let (body_words, payload_bytes) = match dma {
            Some(d) => (3 + d.len.div_ceil(WORD as u16) as u8, d.len as u8),
            None => (3, FIXED_PAYLOAD as u8),
        };
        WireFrame {
            ctrl,
            wire_bytes: (body_words + 2) * WORD as u8,
            payload_bytes,
            pooled: true,
            frame,
        }
    }
}

/// What the MAC decided about an arriving frame.
///
/// Frame ownership: `Deliver` and `Strip` hand the frame back to the
/// caller (release it after use); `DeliverAndForward` keeps the frame
/// queued in the transit buffer — the descriptor is a loan for the
/// delivery copy; `Forward` keeps it queued with no local action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacAction {
    /// Unicast to this node: consumed, not forwarded.
    Deliver(WireFrame),
    /// Broadcast: a copy is delivered here and the packet continues.
    DeliverAndForward(WireFrame),
    /// Own packet back after a full tour: stripped off the ring.
    Strip(WireFrame),
    /// In transit: forwarded downstream unchanged.
    Forward,
}

/// Pure arrival classification, independent of MAC bookkeeping.
///
/// This is the ownership-relevant core of [`RegisterMac::on_arrival`]:
/// given only the node's ring address and the frame's control word it
/// says who ends up owning the frame. Factored out so the model
/// checker (`ampnet-check`) can drive the exact decision procedure the
/// MAC uses without constructing a full `RegisterMac`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameClass {
    /// Own packet back after a full tour: stripped, caller releases it.
    Strip,
    /// Broadcast: delivered locally while the frame stays in transit
    /// (the delivery descriptor is a loan).
    DeliverAndForward,
    /// Unicast to this node: consumed, caller releases it.
    Deliver,
    /// In transit: forwarded downstream unchanged.
    Forward,
}

/// Classify a frame arriving at ring address `id` (see [`FrameClass`]).
///
/// A unicast's destination is tested before its source: a frame a node
/// addresses to itself tours the ring and is delivered back home, not
/// stripped unread. A broadcast always strips at its source.
pub fn classify(id: u8, ctrl: &ControlWord) -> FrameClass {
    if ctrl.dst == id && !ctrl.is_broadcast() {
        FrameClass::Deliver
    } else if ctrl.src == id {
        FrameClass::Strip
    } else if ctrl.is_broadcast() {
        FrameClass::DeliverAndForward
    } else {
        FrameClass::Forward
    }
}

/// What the output port should send next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacTx {
    /// The frame to put on the wire.
    pub frame: WireFrame,
    /// True when this is locally sourced traffic (an insertion).
    pub own: bool,
    /// Source stream for own traffic.
    pub stream: Option<StreamId>,
}

/// The per-node register-insertion MAC (the paper's slide-8 behavior):
/// arrival classification, transmit selection and local enqueueing,
/// all in terms of [`WireFrame`]s.
#[derive(Debug)]
pub struct RegisterMac {
    id: u8,
    params: RingNodeParams,
    transit: VecDeque<WireFrame>,
    transit_bytes: usize,
    urgent: VecDeque<WireFrame>,
    streams: StreamSet,
    governor: InsertionGovernor,
    /// High-water mark of the transit buffer since the last insertion —
    /// the node's "local view of the network" congestion signal.
    highwater_since_insert: usize,
    stats: RingNodeStats,
}

impl RegisterMac {
    /// New MAC for node `id`.
    pub fn new(id: u8, params: RingNodeParams) -> Self {
        RegisterMac {
            id,
            params,
            transit: VecDeque::new(),
            transit_bytes: 0,
            urgent: VecDeque::new(),
            streams: StreamSet::new(params.n_streams),
            governor: InsertionGovernor::new(params.pacing),
            highwater_since_insert: 0,
            stats: RingNodeStats::default(),
        }
    }

    /// Immutable view of stream accounting.
    pub fn streams_ref(&self) -> &StreamSet {
        &self.streams
    }

    /// Governor back-off count (ablation metric).
    pub fn backoffs(&self) -> u64 {
        self.governor.backoffs()
    }

    /// This node's ring address.
    pub fn id(&self) -> u8 {
        self.id
    }

    /// Counters.
    pub fn stats(&self) -> &RingNodeStats {
        &self.stats
    }

    fn push_transit(&mut self, frame: WireFrame) {
        let sz = frame.wire_bytes as usize;
        if self.transit_bytes + sz > self.params.transit_capacity {
            // The structural guarantee says this cannot happen; count
            // it rather than dropping so experiments can assert == 0
            // while the simulation stays live.
            self.stats.would_drop += 1;
        }
        self.transit_bytes += sz;
        self.highwater_since_insert = self.highwater_since_insert.max(self.transit_bytes);
        self.stats.transit_highwater = self.stats.transit_highwater.max(self.transit_bytes);
        self.transit.push_back(frame);
    }

    /// Handle a frame arriving from the upstream link.
    #[inline]
    pub fn on_arrival(&mut self, _now: SimTime, frame: WireFrame) -> MacAction {
        match classify(self.id, &frame.ctrl) {
            FrameClass::Strip => {
                // Our own packet completed its tour.
                self.stats.stripped += 1;
                MacAction::Strip(frame)
            }
            FrameClass::DeliverAndForward => {
                self.stats.delivered += 1;
                self.stats.delivered_payload_bytes += frame.payload_bytes as u64;
                self.push_transit(frame);
                MacAction::DeliverAndForward(frame)
            }
            FrameClass::Deliver => {
                self.stats.delivered += 1;
                self.stats.delivered_payload_bytes += frame.payload_bytes as u64;
                MacAction::Deliver(frame)
            }
            FrameClass::Forward => {
                self.push_transit(frame);
                MacAction::Forward
            }
        }
    }

    /// Choose the next frame for a free output port, or `None` if
    /// nothing is eligible right now. `now` drives the pacing governor.
    #[inline]
    pub fn next_tx(&mut self, now: SimTime) -> Option<MacTx> {
        // 1. Transit traffic has absolute priority.
        if let Some(frame) = self.transit.pop_front() {
            self.transit_bytes -= frame.wire_bytes as usize;
            self.stats.forwarded += 1;
            return Some(MacTx {
                frame,
                own: false,
                stream: None,
            });
        }
        // 2. Urgent own traffic (rostering, interrupts): insertion
        //    buffer is empty here by rule 1.
        if let Some(frame) = self.urgent.pop_front() {
            self.stats.inserted += 1;
            return Some(MacTx {
                frame,
                own: true,
                stream: None,
            });
        }
        // 3. Normal own traffic, governed.
        if !self.governor.may_insert(now) {
            return None;
        }
        let (stream, frame) = self.streams.dequeue()?;
        self.stats.inserted += 1;
        self.governor.on_insert(now, self.highwater_since_insert);
        self.highwater_since_insert = 0;
        Some(MacTx {
            frame,
            own: true,
            stream: Some(stream),
        })
    }

    /// Queue a normal own frame on `stream`.
    pub fn enqueue_own(&mut self, stream: StreamId, frame: WireFrame) {
        self.streams.enqueue(stream, frame);
    }

    /// Queue an urgent (Rostering / Interrupt) frame; bypasses the
    /// stream scheduler and the pacing governor.
    pub fn enqueue_urgent(&mut self, frame: WireFrame) {
        debug_assert!(frame.ctrl.flags.contains(Flags::URGENT));
        self.urgent.push_back(frame);
    }

    /// Earliest time a governed insertion may occur (for scheduling a
    /// retry when `next_tx` returned `None` but streams have traffic).
    pub fn next_insert_allowed(&self) -> SimTime {
        self.governor.next_allowed()
    }

    /// Whether the node has anything to send at all.
    pub fn has_backlog(&self) -> bool {
        !self.transit.is_empty() || !self.urgent.is_empty() || self.streams.has_traffic()
    }

    /// Empty every queue — transit register, urgent queue, streams —
    /// as a crashed NIC loses them, releasing each pooled frame into
    /// `arena` (a held cell has none). Returns how many frames went.
    pub fn discard_queues(&mut self, arena: &mut FrameArena) -> usize {
        let mut discarded = 0;
        let mut discard = |wf: WireFrame| {
            discarded += 1;
            if wf.pooled {
                arena.release(wf.frame);
            }
        };
        self.transit.drain(..).for_each(&mut discard);
        self.urgent.drain(..).for_each(&mut discard);
        self.streams.clear(&mut discard);
        self.transit_bytes = 0;
        self.highwater_since_insert = 0;
        discarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampnet_packet::build;

    fn mac_with(id: u8, params: RingNodeParams) -> (RegisterMac, FrameArena) {
        (RegisterMac::new(id, params), FrameArena::new())
    }

    fn greedy(id: u8) -> (RegisterMac, FrameArena) {
        mac_with(
            id,
            RingNodeParams {
                pacing: PacingMode::Greedy,
                ..Default::default()
            },
        )
    }

    #[test]
    fn wireframe_descriptor_matches_packet() {
        let mut arena = FrameArena::new();
        let pkt = build::data(1, 5, 7, [3; 8]);
        let wf = WireFrame::insert(&mut arena, &pkt);
        assert_eq!(wf.ctrl, pkt.ctrl);
        assert_eq!(wf.wire_bytes as usize, pkt.wire_bytes());
        assert_eq!(wf.payload_bytes as usize, pkt.payload_bytes());
        // `of` reconstructs the same descriptor from the pooled frame.
        assert_eq!(WireFrame::of(&arena, wf.frame), wf);
    }

    #[test]
    fn forwarding_keeps_the_same_frame_ref() {
        let (mut mac, mut arena) = greedy(2);
        let pkt = build::data_broadcast(0, 0, [7; 8]);
        let wf = WireFrame::insert(&mut arena, &pkt);
        match mac.on_arrival(SimTime(0), wf) {
            MacAction::DeliverAndForward(copy) => assert_eq!(copy.frame, wf.frame),
            other => panic!("expected DeliverAndForward, got {other:?}"),
        }
        let tx = mac.next_tx(SimTime(0)).unwrap();
        assert_eq!(tx.frame.frame, wf.frame, "no copy on the forwarding path");
        assert_eq!(arena.stats().acquired, 1, "one encode for the whole hop");
    }

    #[test]
    fn unicast_in_transit_forwarded() {
        let (mut mac, mut arena) = greedy(2);
        let wf = WireFrame::insert(&mut arena, &build::data(0, 5, 0, [1; 8]));
        assert_eq!(mac.on_arrival(SimTime(0), wf), MacAction::Forward);
        let tx = mac.next_tx(SimTime(0)).unwrap();
        assert_eq!(tx.frame, wf);
        assert!(!tx.own);
        assert_eq!(mac.stats().forwarded, 1);
    }

    #[test]
    fn own_packet_stripped_after_tour() {
        let (mut mac, mut arena) = greedy(3);
        let wf = WireFrame::insert(&mut arena, &build::data_broadcast(3, 0, [0; 8]));
        assert_eq!(mac.on_arrival(SimTime(0), wf), MacAction::Strip(wf));
        assert_eq!(mac.stats().stripped, 1);
        assert!(mac.next_tx(SimTime(0)).is_none());
    }

    #[test]
    fn self_addressed_unicast_is_delivered_back_home() {
        let (mut mac, mut arena) = greedy(3);
        let wf = WireFrame::insert(&mut arena, &build::data(3, 3, 0, [0; 8]));
        assert_eq!(mac.on_arrival(SimTime(0), wf), MacAction::Deliver(wf));
        assert_eq!(mac.stats().delivered, 1);
        assert_eq!(mac.stats().stripped, 0);
    }

    #[test]
    fn transit_beats_own_traffic() {
        let (mut mac, mut arena) = greedy(1);
        mac.enqueue_own(0, WireFrame::insert(&mut arena, &build::data(1, 5, 0, [1; 8])));
        let transit = WireFrame::insert(&mut arena, &build::data(0, 5, 0, [2; 8]));
        mac.on_arrival(SimTime(0), transit);
        let first = mac.next_tx(SimTime(0)).unwrap();
        assert_eq!(first.frame, transit, "transit must go first");
        let second = mac.next_tx(SimTime(0)).unwrap();
        assert!(second.own);
    }

    #[test]
    fn own_insert_requires_empty_transit() {
        let (mut mac, mut arena) = greedy(1);
        mac.enqueue_own(0, WireFrame::insert(&mut arena, &build::data(1, 5, 0, [1; 8])));
        mac.on_arrival(SimTime(0), WireFrame::insert(&mut arena, &build::data(0, 5, 0, [2; 8])));
        mac.on_arrival(SimTime(0), WireFrame::insert(&mut arena, &build::data(0, 6, 0, [3; 8])));
        // Drain: transit, transit, then own.
        assert!(!mac.next_tx(SimTime(0)).unwrap().own);
        assert!(!mac.next_tx(SimTime(0)).unwrap().own);
        assert!(mac.next_tx(SimTime(0)).unwrap().own);
    }

    #[test]
    fn urgent_bypasses_governor_but_not_transit() {
        let (mut mac, mut arena) = mac_with(1, RingNodeParams::default());
        // Make the governor refuse normal insertions for a while.
        for _ in 0..4 {
            mac.on_arrival(SimTime(0), WireFrame::insert(&mut arena, &build::data(0, 5, 0, [9; 8])));
        }
        while mac.next_tx(SimTime(0)).is_some() {}
        let roster = WireFrame::insert(&mut arena, &build::rostering(1, 0, [0; 8]));
        mac.enqueue_urgent(roster);
        let transit = WireFrame::insert(&mut arena, &build::data(0, 5, 0, [2; 8]));
        mac.on_arrival(SimTime(0), transit);
        assert_eq!(mac.next_tx(SimTime(0)).unwrap().frame, transit);
        assert_eq!(mac.next_tx(SimTime(0)).unwrap().frame, roster);
    }

    #[test]
    fn highwater_and_would_drop_accounting() {
        let (mut mac, mut arena) = mac_with(
            1,
            RingNodeParams {
                transit_capacity: 40,
                pacing: PacingMode::Greedy,
                n_streams: 1,
            },
        );
        // 3 × 20-byte packets into a 40-byte buffer: third would drop.
        for i in 0..3 {
            mac.on_arrival(SimTime(0), WireFrame::insert(&mut arena, &build::data(0, 5, i, [i; 8])));
        }
        assert_eq!(mac.stats().would_drop, 1);
        assert_eq!(mac.stats().transit_highwater, 60);
        assert_eq!(mac.transit_bytes, 60);
    }

    #[test]
    fn structural_capacity_never_trips_with_default_params() {
        // Worst case modelled by the insert-when-empty rule: the node
        // inserts one max packet; during that time one max packet
        // finishes arriving and one more is in flight.
        let (mut mac, mut arena) = mac_with(1, RingNodeParams::default());
        mac.on_arrival(SimTime(0), WireFrame::insert(&mut arena, &build::data(0, 5, 0, [0; 8])));
        let full = build::dma(
            0,
            5,
            0,
            ampnet_packet::DmaCtrl {
                channel: 0,
                region: 0,
                offset: 0,
                len: 0,
            },
            &[0; 64],
        )
        .unwrap();
        mac.on_arrival(SimTime(0), WireFrame::insert(&mut arena, &full));
        assert_eq!(mac.stats().would_drop, 0);
    }
}
