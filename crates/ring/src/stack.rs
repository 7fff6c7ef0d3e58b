//! The layered node data-plane: `SerialPhy → RegisterMac`, the
//! router half of the NIU.
//!
//! The paper's NIU (slides 7–8) is one fixed pipeline: the serial PHY
//! recovers 8b/10b groups off the fiber and the register-insertion MAC
//! decides *forward / deliver / strip*. [`NodeStack`] models those
//! planes once, with their telemetry; the standalone
//! [`Segment`](crate::Segment) simulator and `ampnet-core`'s `Cluster`
//! both drive it through [`NodeStack::classify_arrival`]. What a
//! delivered frame becomes on the host side (a collected packet, a
//! per-source byte count, a dispatched cache update) belongs to the
//! driver: the stack hands it the MAC's [`MacAction`] and never reads
//! a payload.
//!
//! Buffer lifecycle — stored once, read in place: a packet is copied
//! **once** into a [`FrameArena`](ampnet_packet::FrameArena) slot by
//! the time it leaves its source. When depends on its class:
//!
//! * a fixed-format cell (every type but DMA) queued with
//!   [`NodeStack::enqueue`] or [`NodeStack::enqueue_urgent`] waits in
//!   its stream or urgent queue as a value — its 16-byte [`WireFrame`],
//!   8-byte field inline — and is pooled by the driver as it goes on
//!   the wire ([`WireFrame::pool`]), so the arena holds the frames on
//!   the wire and in transit registers, not the send backlog;
//! * a DMA cell is pooled at enqueue: its 64-byte body needs a home,
//!   and the descriptor has room for its DMA control only;
//! * [`NodeStack::enqueue_packet`] pools any packet at enqueue.
//!
//! Every hop reads the slot's header fields into the 16-byte
//! [`WireFrame`] descriptor (a compile-time assertion) without parsing
//! anything; the payload is read only by the driver at delivery, and
//! the slot is recycled when the frame leaves the ring (unicast
//! delivery or source strip).
//! An error burst is assessed by the [`SerialPhy`]'s 8b/10b checker
//! through [`NodeStack::phy_burst`].

use crate::mac::{MacAction, MacTx, RegisterMac, RingNodeStats, WireFrame, MAX_PACKET_WIRE};
use crate::stream::StreamId;
use ampnet_packet::{FrameArena, FrameRef, MicroPacket};
use ampnet_phy::LinkParams;
use ampnet_sim::{SimDuration, SimTime};
use ampnet_telemetry::{
    defs, CounterHandle, FlightEvent, FlightKind, GaugeHandle, Plane, Telemetry,
};
use std::cell::Cell;
use std::sync::Arc;

/// Most line groups [`SerialPhy::assess_burst`] decodes for one burst:
/// the first 1,024 corrupted groups and the fill between them. Every
/// burst the workspace schedules (at most 60 errors) fits inside it. A
/// burst that reaches it has been flagged about 1,600 times, so a
/// longer window only costs time. Decoding takes 86–100 ns per error on
/// a 2-core x86-64 host: one unbounded `u32::MAX`-error burst would
/// stall a run for six to seven minutes.
pub const BURST_WINDOW_GROUPS: usize = 4096;

/// The PHY plane — the paper's serial port: one outgoing fiber at a
/// fixed line rate plus the per-node elasticity/re-timing latency, and
/// the 8b/10b line-error checker.
///
/// The port is the single owner of hop timing. The `f64` link math is
/// derived once, not per transmission: propagation when the fiber is
/// set, serialization as a table over every MicroPacket size when the
/// port is built. Serialization depends on the line rate alone, so the
/// table survives [`SerialPhy::set_fiber_length`], and clones of a port
/// share it — a driver that builds its ports by cloning one prototype
/// keeps a single table hot instead of one cache line per port.
#[derive(Debug, Clone)]
pub struct SerialPhy {
    link: LinkParams,
    node_latency: SimDuration,
    /// Propagation + downstream re-timing for the current fiber, nanos.
    fixed_ns: u64,
    /// `serialize_time(bytes)` in nanos, indexed by wire size.
    ser_ns: Arc<[u64; MAX_PACKET_WIRE + 1]>,
}

impl SerialPhy {
    /// A port over `link`; `node_latency` is the register-insertion
    /// transit latency added at the downstream node (elasticity buffer
    /// + one word re-timing).
    pub fn new(link: LinkParams, node_latency: SimDuration) -> Self {
        SerialPhy {
            link,
            node_latency,
            fixed_ns: (link.propagation() + node_latency).as_nanos(),
            ser_ns: Arc::new(std::array::from_fn(|bytes| {
                link.serialize_time(bytes).as_nanos()
            })),
        }
    }

    /// Re-point the port at an outgoing fiber of `length_m` metres (a
    /// roster episode changed this node's ring successor).
    pub fn set_fiber_length(&mut self, length_m: f64) {
        self.link.length_m = length_m;
        self.fixed_ns = (self.link.propagation() + self.node_latency).as_nanos();
    }

    /// `(serialize time, full hop latency)` for a frame of
    /// `wire_bytes`: how long the output port is busy, and when the
    /// last byte has arrived downstream (serialization + propagation +
    /// re-timing).
    pub fn hop_timing(&self, wire_bytes: usize) -> (SimDuration, SimDuration) {
        let ser = match self.ser_ns.get(wire_bytes) {
            Some(&ns) => ns,
            // Longer than any MicroPacket.
            None => self.link.serialize_time(wire_bytes).as_nanos(),
        };
        (
            SimDuration::from_nanos(ser),
            SimDuration::from_nanos(ser + self.fixed_ns),
        )
    }

    /// Assess a bit-error burst against the 8b/10b checker: corrupt a
    /// window of line groups (replayable from `seed`) and return how
    /// many code/disparity violations the deserializer flags. The
    /// window is at most [`BURST_WINDOW_GROUPS`] groups, so the cost of
    /// one burst is bounded whatever `errors` says.
    pub fn assess_burst(&mut self, seed: u64, errors: u32) -> u32 {
        use ampnet_phy::{Decoder, Encoder, ErrorBurst, Symbol};
        // The deserializer sees a window of inter-frame fill while the
        // burst is active; corrupt it and count violations the way the
        // NIU's 8b/10b checker does. A disparity slip may surface a few
        // groups late — scanning the whole window models that.
        let mut burst = ErrorBurst::new(seed, errors);
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let mut detected = 0u32;
        let window = (errors as usize).max(1).saturating_mul(4).min(BURST_WINDOW_GROUPS);
        for i in 0..window {
            let byte = (i % 251) as u8;
            let clean = enc.encode_data(byte);
            let wire = if i % 4 == 0 {
                burst.corrupt_group(clean)
            } else {
                clean
            };
            match dec.decode(wire) {
                Ok(sym) if sym == Symbol::Data(byte) => {}
                _ => detected = detected.saturating_add(1),
            }
        }
        detected
    }
}

/// Per-node handles into a shared [`Telemetry`] registry, one per
/// plane metric of this stack. Constructed disabled by default; the
/// owning `Segment`/`Cluster` calls [`NodeStack::instrument`] to make
/// the stack record.
///
/// The hop counters (`phy_tx_frames`, `mac_inserted`, `mac_forwarded`,
/// `mac_stripped`, `delivery_frames`, `delivery_payload_bytes`) count
/// facts the MAC already counts in its [`RingNodeStats`], so no hop
/// writes them: [`NodeStack::publish_metrics`] adds what the MAC
/// counted since the last publish, and a dropped stack does the same.
/// The flight events stay per hop.
///
/// Recording through these handles is zero-alloc: registration (here,
/// at setup time) is the only allocating step.
#[derive(Debug, Clone)]
pub struct StackTelemetry {
    tel: Telemetry,
    node: u8,
    phy_tx: CounterHandle,
    bursts: CounterHandle,
    bit_errors: CounterHandle,
    violations: CounterHandle,
    inserted: CounterHandle,
    forwarded: CounterHandle,
    stripped: CounterHandle,
    would_drop: GaugeHandle,
    transit_hw: GaugeHandle,
    backoffs: GaugeHandle,
    dl_frames: CounterHandle,
    dl_bytes: CounterHandle,
    /// The MAC's counters as of the last publish (a `Cell`, so a
    /// snapshot publishes through `&self`).
    published: Cell<RingNodeStats>,
}

impl Default for StackTelemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl StackTelemetry {
    /// Inert handles: every record call is a no-op.
    pub fn disabled() -> Self {
        StackTelemetry {
            tel: Telemetry::disabled(),
            node: 0,
            phy_tx: CounterHandle::NONE,
            bursts: CounterHandle::NONE,
            bit_errors: CounterHandle::NONE,
            violations: CounterHandle::NONE,
            inserted: CounterHandle::NONE,
            forwarded: CounterHandle::NONE,
            stripped: CounterHandle::NONE,
            would_drop: GaugeHandle::NONE,
            transit_hw: GaugeHandle::NONE,
            backoffs: GaugeHandle::NONE,
            dl_frames: CounterHandle::NONE,
            dl_bytes: CounterHandle::NONE,
            published: Cell::default(),
        }
    }

    /// Register this node's plane instruments in `tel`. The MAC
    /// counters publish from zero: a stack instrumented mid-run sets
    /// its baseline ([`NodeStack::instrument`] does).
    pub fn new(tel: &Telemetry, node: u8) -> Self {
        StackTelemetry {
            tel: tel.clone(),
            node,
            phy_tx: tel.counter(&defs::PHY_TX_FRAMES, node),
            bursts: tel.counter(&defs::PHY_BURSTS_INJECTED, node),
            bit_errors: tel.counter(&defs::PHY_BURST_BIT_ERRORS, node),
            violations: tel.counter(&defs::PHY_BURST_VIOLATIONS, node),
            inserted: tel.counter(&defs::MAC_INSERTED, node),
            forwarded: tel.counter(&defs::MAC_FORWARDED, node),
            stripped: tel.counter(&defs::MAC_STRIPPED, node),
            would_drop: tel.gauge(&defs::MAC_WOULD_DROP, node),
            transit_hw: tel.gauge(&defs::MAC_TRANSIT_HIGHWATER, node),
            backoffs: tel.gauge(&defs::MAC_BACKOFFS, node),
            dl_frames: tel.counter(&defs::DELIVERY_FRAMES, node),
            dl_bytes: tel.counter(&defs::DELIVERY_PAYLOAD_BYTES, node),
            published: Cell::default(),
        }
    }

    /// Add to the hop counters what the MAC counted since the last
    /// publish: `phy_tx_frames` is `inserted + forwarded`, and the
    /// delivery counters are the MAC's delivered frames and bytes.
    /// The MAC's counters never fall; saturating keeps a drop from
    /// panicking if `NodeStack::mac` is ever replaced.
    fn publish_mac_counters(&self, stats: &RingNodeStats) {
        let last = self.published.replace(*stats);
        let inserted = stats.inserted.saturating_sub(last.inserted);
        let forwarded = stats.forwarded.saturating_sub(last.forwarded);
        self.tel.add(self.phy_tx, inserted + forwarded);
        self.tel.add(self.inserted, inserted);
        self.tel.add(self.forwarded, forwarded);
        self.tel.add(self.stripped, stats.stripped.saturating_sub(last.stripped));
        self.tel.add(self.dl_frames, stats.delivered.saturating_sub(last.delivered));
        self.tel.add(
            self.dl_bytes,
            stats.delivered_payload_bytes.saturating_sub(last.delivered_payload_bytes),
        );
    }

    /// Sync the MAC gauges from the MAC's own counters (called before
    /// a snapshot; gauges are sampled, not pushed).
    pub fn publish_mac_gauges(&self, stats: &RingNodeStats) {
        self.tel.set(self.would_drop, stats.would_drop as i64);
        self.tel.set(self.transit_hw, stats.transit_highwater as i64);
    }

    /// Publish the pacing governor's backoff count (the owner samples
    /// it explicitly, right before a snapshot).
    pub fn set_backoffs(&self, backoffs: u64) {
        self.tel.set(self.backoffs, backoffs as i64);
    }

    #[inline]
    fn delivered(&self, now: SimTime, wf: &WireFrame) {
        self.tel.flight(FlightEvent {
            at_ns: now.0,
            node: self.node,
            plane: Plane::Delivery,
            kind: FlightKind::MacDeliver,
            a: wf.ctrl.src as u64,
            b: wf.payload_bytes as u64,
        });
    }
}

/// One node's layered data-plane: `phy` (serialization, 8b/10b) and
/// `mac` (insertion register + pacing), with their telemetry.
///
/// # Example
///
/// A two-node hop: node 0 inserts a unicast packet, node 1 delivers it
/// and the pooled frame is recycled.
///
/// ```
/// use ampnet_packet::{build, FrameArena};
/// use ampnet_ring::{MacAction, NodeStack, PacingMode, RingNodeParams};
/// use ampnet_phy::LinkParams;
/// use ampnet_sim::{SimDuration, SimTime};
///
/// let mut arena = FrameArena::new();
/// let params = RingNodeParams { pacing: PacingMode::Greedy, ..Default::default() };
/// let mk = |id| NodeStack::with_defaults(
///     id, params, LinkParams::default(),
///     SimDuration::from_nanos(60), 2,
/// );
/// let (mut tx, mut rx) = (mk(0), mk(1));
///
/// tx.enqueue_packet(&mut arena, 0, &build::data(0, 1, 0, [7; 8]));
/// let sent = tx.next_tx(SimTime(0), &arena).expect("eligible to insert");
/// let action = rx.on_wire_arrival(SimTime(100), &mut arena, sent.frame.frame);
/// assert!(matches!(action, MacAction::Deliver(_)));
/// assert_eq!(arena.live(), 0, "delivery recycled the frame slot");
/// ```
#[derive(Debug)]
pub struct NodeStack {
    /// The PHY plane.
    pub phy: SerialPhy,
    /// The insertion-MAC plane.
    pub mac: RegisterMac,
    /// Per-plane metric handles (inert until [`NodeStack::instrument`]).
    pub telemetry: StackTelemetry,
}

impl NodeStack {
    /// Assemble a stack from its planes.
    pub fn new(phy: SerialPhy, mac: RegisterMac) -> Self {
        NodeStack { phy, mac, telemetry: StackTelemetry::disabled() }
    }

    /// Attach this stack to a shared registry: registers its per-plane
    /// instruments under the MAC's node id. Idempotent per registry.
    /// The old handles first publish what they owe; the new ones count
    /// from the MAC's state now.
    pub fn instrument(&mut self, tel: &Telemetry) {
        let stats = *self.mac.stats();
        self.telemetry.publish_mac_counters(&stats);
        self.telemetry = StackTelemetry::new(tel, self.mac.id());
        self.telemetry.published.set(stats);
    }

    /// Publish the MAC's hop counters and sample its gauges
    /// (`mac_would_drop`, `mac_transit_highwater_bytes`) into the
    /// registry. Call before taking a snapshot.
    pub fn publish_metrics(&self) {
        self.telemetry.publish_mac_counters(self.mac.stats());
        self.telemetry.publish_mac_gauges(self.mac.stats());
    }

    /// [`NodeStack::classify_arrival`] for a host that never reads a
    /// delivered frame: a delivered unicast is recycled too. Only the
    /// `benchmark/` package calls it; it builds against this API and
    /// is frozen.
    #[inline]
    pub fn on_wire_arrival(
        &mut self,
        now: SimTime,
        arena: &mut FrameArena,
        frame: FrameRef,
    ) -> MacAction {
        let action = self.classify_arrival(now, arena, frame);
        if let MacAction::Deliver(wf) = action {
            arena.release(wf.frame);
        }
        action
    }

    /// A frame's last byte arrived from upstream: classify it and
    /// account for it on every plane (MAC counters, flight recorder). The
    /// MAC's verdict comes back with the frame's descriptor:
    ///
    /// * `Deliver`: the frame is **still live**; the driver reads it
    ///   from `arena` and releases it.
    /// * `DeliverAndForward`: the frame is on loan from the transit
    ///   buffer and must only be read.
    /// * `Strip`: the frame is **already back in the pool**; the
    ///   descriptor names a released slot and only its header copy
    ///   may be used.
    /// * `Forward`: queued for the output port.
    ///
    /// This is the stack's one arrival path, and it and the other
    /// per-frame calls (`next_tx`, `RegisterMac::{on_arrival,
    /// next_tx}`) are `#[inline]`: each has two drivers, `Segment` and
    /// `Cluster`, and out of line every hop stored its `WireFrame` /
    /// `MacTx` to the stack only for the caller to load it back
    /// (EXPERIMENTS.md §B13).
    #[inline]
    pub fn classify_arrival(
        &mut self,
        now: SimTime,
        arena: &mut FrameArena,
        frame: FrameRef,
    ) -> MacAction {
        let action = self.mac.on_arrival(now, WireFrame::of(arena, frame));
        match action {
            MacAction::Deliver(wf) | MacAction::DeliverAndForward(wf) => {
                self.telemetry.delivered(now, &wf);
            }
            MacAction::Strip(wf) => {
                self.telemetry.tel.flight(FlightEvent {
                    at_ns: now.0,
                    node: self.telemetry.node,
                    plane: Plane::Mac,
                    kind: FlightKind::MacStrip,
                    a: wf.wire_bytes as u64,
                    b: 0,
                });
                arena.release(wf.frame);
            }
            MacAction::Forward => {}
        }
        action
    }

    /// Serialize an own packet into the arena (its single encode) and
    /// queue it on `stream`: every packet is pooled at enqueue, so
    /// [`NodeStack::next_tx`] hands back a frame the caller can release.
    /// The drivers queue with [`NodeStack::enqueue`]; this eager entry
    /// stays for the `benchmark/` package, which builds against this API
    /// and is frozen.
    pub fn enqueue_packet(&mut self, arena: &mut FrameArena, stream: StreamId, pkt: &MicroPacket) {
        let wf = WireFrame::insert(arena, pkt);
        self.mac.enqueue_own(stream, wf);
    }

    /// Queue a well-formed own packet on `stream` as a value
    /// ([`WireFrame::queued`]): a fixed-format cell takes no frame
    /// until it is sent, a DMA packet takes its frame and body now.
    /// Pool an own frame [`NodeStack::next_tx`] hands back with
    /// [`WireFrame::pool`].
    pub fn enqueue(&mut self, arena: &mut FrameArena, stream: StreamId, pkt: &MicroPacket) {
        let wf = WireFrame::queued(arena, pkt);
        self.mac.enqueue_own(stream, wf);
    }

    /// [`NodeStack::enqueue`] for an urgent packet (Rostering,
    /// Interrupt), queued ahead of the stream scheduler.
    pub fn enqueue_urgent(&mut self, arena: &mut FrameArena, pkt: &MicroPacket) {
        let wf = WireFrame::queued(arena, pkt);
        self.mac.enqueue_urgent(wf);
    }

    /// Pick the next frame for a free output port and clock it through
    /// the PHY. `None` when nothing is eligible right now. An own cell
    /// queued as a value comes back unpooled: the driver pools it with
    /// [`WireFrame::pool`] before it goes on the wire. A forwarded
    /// frame is pooled. `_arena` stays in the signature for the
    /// `benchmark/` package, which builds against this API and is frozen.
    #[inline]
    pub fn next_tx(&mut self, now: SimTime, _arena: &FrameArena) -> Option<MacTx> {
        let tx = self.mac.next_tx(now)?;
        if tx.own {
            self.telemetry.tel.flight(FlightEvent {
                at_ns: now.0,
                node: self.telemetry.node,
                plane: Plane::Mac,
                kind: FlightKind::MacInsert,
                a: tx.frame.ctrl.dst as u64,
                b: tx.frame.wire_bytes as u64,
            });
        }
        Some(tx)
    }

    /// When [`NodeStack::next_tx`] gave nothing: the instant to try
    /// again, if own traffic waits on the pacing governor. `None` when
    /// no stream holds traffic or the governor already allows it — the
    /// next arrival or end of transmission kicks the port anyway.
    pub fn insert_retry_at(&self, now: SimTime) -> Option<SimTime> {
        let at = self.mac.next_insert_allowed();
        (self.mac.streams_ref().has_traffic() && at > now).then_some(at)
    }

    /// A bit-error burst of `errors` single-bit corruptions on the
    /// receive fiber, replayable from `seed`, assessed by the PHY's
    /// 8b/10b checker and stamped on the flight-recorder timeline at
    /// `now`. Returns the violations flagged, so the control plane can
    /// decide whether to escalate.
    pub fn phy_burst(&mut self, now: SimTime, seed: u64, errors: u32) -> u32 {
        let detected = self.phy.assess_burst(seed, errors);
        self.telemetry.tel.inc(self.telemetry.bursts);
        self.telemetry.tel.add(self.telemetry.bit_errors, errors as u64);
        self.telemetry.tel.add(self.telemetry.violations, detected as u64);
        self.telemetry.tel.flight(FlightEvent {
            at_ns: now.0,
            node: self.telemetry.node,
            plane: Plane::Phy,
            kind: FlightKind::PhyBurst,
            a: errors as u64,
            b: detected as u64,
        });
        detected
    }

    /// The default stack: serial PHY and register-insertion MAC.
    /// `_n_sources` stays in the signature for the `benchmark/`
    /// package, which builds against this API and is frozen.
    pub fn with_defaults(
        id: u8,
        params: crate::mac::RingNodeParams,
        link: LinkParams,
        node_latency: SimDuration,
        _n_sources: usize,
    ) -> Self {
        NodeStack::new(SerialPhy::new(link, node_latency), RegisterMac::new(id, params))
    }
}

/// A dropped stack publishes the hop counters it owes (not its gauges),
/// so a registry that outlives its cluster or segment holds every hop.
impl Drop for NodeStack {
    fn drop(&mut self) {
        self.telemetry.publish_mac_counters(self.mac.stats());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::RingNodeParams;
    use crate::pacing::PacingMode;
    use ampnet_packet::build;

    fn stack(id: u8, n: usize) -> NodeStack {
        NodeStack::with_defaults(
            id,
            RingNodeParams {
                pacing: PacingMode::Greedy,
                ..Default::default()
            },
            LinkParams::default(),
            SimDuration::from_nanos(60),
            n,
        )
    }

    #[test]
    fn unicast_frame_is_delivered_and_recycled() {
        let mut arena = FrameArena::new();
        let mut s = stack(2, 4);
        let pkt = build::data(0, 2, 1, [9; 8]);
        let f = arena.insert(&pkt);
        let MacAction::Deliver(wf) = s.classify_arrival(SimTime(0), &mut arena, f) else {
            panic!("a unicast to node 2 is delivered there");
        };
        assert_eq!((wf.frame, wf.payload_bytes), (f, 8));
        assert_eq!(arena.decode(f), pkt, "still live for the host to read");
        let again = arena.insert(&pkt);
        assert!(matches!(
            s.on_wire_arrival(SimTime(0), &mut arena, again),
            MacAction::Deliver(_)
        ));
        assert_eq!(arena.live(), 1, "on_wire_arrival recycled its frame");
    }

    #[test]
    fn broadcast_tour_releases_frame_at_source() {
        let mut arena = FrameArena::new();
        let mut stacks: Vec<NodeStack> = (0..3).map(|i| stack(i, 3)).collect();
        let pkt = build::data_broadcast(0, 0, [5; 8]);
        // Source inserts once; the frame then tours 1 → 2 → 0.
        stacks[0].enqueue_packet(&mut arena, 0, &pkt);
        let tx = stacks[0].next_tx(SimTime(0), &arena).unwrap();
        assert!(tx.own);
        let mut f = tx.frame.frame;
        for hop in [1usize, 2] {
            assert!(matches!(
                stacks[hop].on_wire_arrival(SimTime(0), &mut arena, f),
                MacAction::DeliverAndForward(_)
            ));
            let fwd = stacks[hop].next_tx(SimTime(0), &arena).unwrap();
            assert!(!fwd.own);
            assert_eq!(fwd.frame.frame, f, "same pooled frame all the way round");
            f = fwd.frame.frame;
        }
        assert!(matches!(
            stacks[0].on_wire_arrival(SimTime(0), &mut arena, f),
            MacAction::Strip(_)
        ));
        assert_eq!(arena.live(), 0, "strip recycles the slot");
        assert_eq!(arena.stats().acquired, 1, "one encode for the whole tour");
    }

    /// One broadcast from node 0 round a 3-node ring: one insertion,
    /// two forwards, two deliveries of 8 bytes, one strip.
    fn broadcast_tour(stacks: &mut [NodeStack], arena: &mut FrameArena) {
        stacks[0].enqueue_packet(arena, 0, &build::data_broadcast(0, 0, [5; 8]));
        let mut f = stacks[0].next_tx(SimTime(0), arena).unwrap().frame.frame;
        for hop in [1, 2] {
            stacks[hop].on_wire_arrival(SimTime(0), arena, f);
            f = stacks[hop].next_tx(SimTime(0), arena).unwrap().frame.frame;
        }
        stacks[0].on_wire_arrival(SimTime(0), arena, f);
    }

    const HOP_COUNTERS: [&str; 6] = [
        "phy_tx_frames",
        "mac_inserted",
        "mac_forwarded",
        "mac_stripped",
        "delivery_frames",
        "delivery_payload_bytes",
    ];

    fn hop_counts(tel: &Telemetry) -> [u64; 6] {
        let snap = tel.snapshot();
        HOP_COUNTERS.map(|name| snap.counter_total(name))
    }

    #[test]
    fn hop_counters_publish_from_the_mac_at_snapshot_and_on_drop() {
        let mut arena = FrameArena::new();
        let mut stacks: Vec<NodeStack> = (0..3).map(|i| stack(i, 3)).collect();
        broadcast_tour(&mut stacks, &mut arena); // before instrumenting: not counted
        let (a, b) = (Telemetry::new(8), Telemetry::new(8));
        stacks.iter_mut().for_each(|s| s.instrument(&a));
        broadcast_tour(&mut stacks, &mut arena);
        assert_eq!(hop_counts(&a), [0; 6], "no hop writes a counter");
        stacks.iter().for_each(NodeStack::publish_metrics);
        stacks.iter().for_each(NodeStack::publish_metrics);
        let tour = [3, 1, 2, 1, 2, 16];
        assert_eq!(hop_counts(&a), tour, "a second publish adds nothing");
        broadcast_tour(&mut stacks, &mut arena);
        // Re-instrumenting pays the old registry what it is owed.
        stacks.iter_mut().for_each(|s| s.instrument(&b));
        assert_eq!(hop_counts(&a), tour.map(|n| 2 * n));
        broadcast_tour(&mut stacks, &mut arena);
        drop(stacks);
        assert_eq!(hop_counts(&b), tour, "a dropped stack publishes");
        assert_eq!(hop_counts(&a), tour.map(|n| 2 * n));
    }

    /// A Data, an Interrupt (urgent) and a D64 atomic cell.
    fn cells() -> [MicroPacket; 3] {
        use ampnet_packet::build::{AtomicOp, AtomicRequest, InterruptPayload};
        let ip = InterruptPayload { vector: 0x54, cookie: 3, arg: 0xDEAD_BEEF };
        let req = AtomicRequest { op: AtomicOp::Swap, region: 2, offset: 64, operand: 9 };
        [
            build::data(0, 2, 1, [0xA5; 8]),
            build::interrupt(0, 1, ip),
            build::atomic_request(0, 2, req),
        ]
    }

    fn dma_packet() -> MicroPacket {
        let ctrl = ampnet_packet::DmaCtrl { channel: 1, region: 0, offset: 128, len: 0 };
        build::dma(0, 2, 0, ctrl, &[7; 40]).unwrap()
    }

    #[test]
    fn a_queued_cell_takes_no_frame_until_it_is_sent() {
        let mut arena = FrameArena::new();
        let mut s = stack(0, 4);
        for (sent, pkt) in cells().into_iter().enumerate() {
            if pkt.ctrl.flags.contains(ampnet_packet::Flags::URGENT) {
                s.enqueue_urgent(&mut arena, &pkt);
            } else {
                s.enqueue(&mut arena, 1, &pkt);
            }
            let pooled = (arena.live(), arena.stats().acquired);
            assert_eq!(pooled, (0, sent as u64), "queued as a value");
            let tx = s.next_tx(SimTime(0), &arena).unwrap();
            assert!(tx.own && !tx.frame.pooled);
            assert_eq!(tx.frame.wire_bytes as usize, pkt.wire_bytes());
            let f = tx.frame.pool(&mut arena);
            assert_eq!(arena.live(), 1, "pooled as it is sent");
            assert_eq!(arena.decode(f), pkt, "the queued packet, byte for byte");
            assert_eq!(WireFrame::of(&arena, f).frame, f);
            arena.release(f);
        }
        assert_eq!(arena.resident_bytes(), 24, "one head, reused; no body");
    }

    #[test]
    fn a_dma_packet_takes_its_frame_and_body_at_enqueue() {
        let mut arena = FrameArena::new();
        let mut s = stack(0, 4);
        let pkt = dma_packet();
        s.enqueue(&mut arena, 0, &pkt);
        assert_eq!(arena.live(), 1);
        assert_eq!(arena.resident_bytes(), 24 + ampnet_packet::MAX_DMA_PAYLOAD);
        let tx = s.next_tx(SimTime(0), &arena).unwrap();
        assert!(tx.frame.pooled);
        let f = tx.frame.pool(&mut arena);
        assert_eq!((f, arena.stats().acquired), (tx.frame.frame, 1), "no second frame");
        assert_eq!(arena.decode(f), pkt);
    }

    #[test]
    fn enqueue_packet_hands_next_tx_a_frame_the_caller_releases() {
        let mut arena = FrameArena::new();
        let mut s = stack(0, 4);
        for pkt in cells().into_iter().chain([dma_packet()]) {
            s.enqueue_packet(&mut arena, 0, &pkt);
        }
        assert_eq!(arena.live(), 4, "pooled at enqueue");
        while let Some(tx) = s.next_tx(SimTime(0), &arena) {
            assert!(tx.frame.pooled);
            arena.release(tx.frame.frame);
        }
        assert_eq!(arena.live(), 0);
    }

    #[test]
    fn a_discard_releases_exactly_the_pooled_frames() {
        let mut arena = FrameArena::new();
        let mut s = stack(3, 4);
        let transit = arena.insert(&build::data(0, 1, 0, [1; 8]));
        assert!(matches!(
            s.classify_arrival(SimTime(0), &mut arena, transit),
            MacAction::Forward
        ));
        for pkt in cells() {
            if pkt.ctrl.flags.contains(ampnet_packet::Flags::URGENT) {
                s.enqueue_urgent(&mut arena, &pkt);
            } else {
                s.enqueue(&mut arena, 2, &pkt);
            }
        }
        s.enqueue(&mut arena, 0, &dma_packet());
        assert_eq!(arena.live(), 2, "the transit frame and the DMA frame");
        assert_eq!(s.mac.discard_queues(&mut arena), 5);
        assert_eq!(arena.live(), 0);
        assert!(!s.mac.has_backlog());
        assert_eq!(s.mac.streams_ref().queued_packets(), 0);
        assert!(s.next_tx(SimTime(0), &arena).is_none());
    }

    #[test]
    fn hop_timing_matches_link_math_and_follows_the_fiber() {
        let retime = SimDuration::from_nanos(60);
        let phy = SerialPhy::new(LinkParams::gigabit(10.0), retime);
        let mut moved = phy.clone();
        moved.set_fiber_length(250.0);
        for (phy, link) in [
            (&phy, LinkParams::gigabit(10.0)),
            (&moved, LinkParams::gigabit(250.0)),
        ] {
            // 200 is longer than any MicroPacket: off the table.
            for bytes in [20usize, 84, 200] {
                let ser = link.serialize_time(bytes);
                assert_eq!(
                    phy.hop_timing(bytes),
                    (ser, ser + link.propagation() + retime)
                );
            }
        }
    }

    #[test]
    fn phy_burst_assessment_is_deterministic() {
        let mut s = stack(0, 1);
        let a = s.phy_burst(SimTime(0), 77, 9);
        let b = s.phy_burst(SimTime(0), 77, 9);
        assert_eq!(a, b, "same seed, same verdict");
        assert!(a > 0, "a 9-error burst must trip the 8b/10b checker");
        assert_eq!(s.phy_burst(SimTime(0), 1, 0), 0);
    }
}
