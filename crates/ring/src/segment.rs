//! Standalone ring-segment simulator: the `ring_saturated` fixture.
//!
//! Drives a ring of [`NodeStack`]s (SerialPhy → RegisterMac) over
//! serial links with the `ampnet-sim` kernel, under one workload:
//! slide 8's simultaneous all-to-all broadcast of fixed Data cells as
//! open-loop Poisson streams ([`Segment::all_to_all_broadcast`]). The
//! paper's ring experiments (E3, E4, A1), the MAC properties and the
//! `saturated_segment` example run on `ampnet-core`'s `Cluster` with its
//! cell-traffic driver instead; what is left here has these callers:
//!
//! * `benchmark/`'s `ring_saturated` workload;
//! * `tests/refactor_equivalence.rs`, which pins this segment's
//!   delivery accounting;
//! * `tests/memory_footprint.rs`, which pins where its saturated
//!   backlog waits;
//! * `ampnet-core`'s `driver_agreement` test, which runs the same
//!   arrivals on both drivers hop for hop.
//!
//! A cell waits in its node's stream queue as a value and is stored
//! once, as its node sends it, into the segment's shared
//! [`FrameArena`]; arrival events and transit buffers carry
//! [`FrameRef`] handles, so the steady-state forwarding path performs
//! zero heap allocations, and the arena holds what is on the ring, not
//! the backlog behind it. The event loop takes one event at a time;
//! the pop is fused with the handler's first schedule
//! ([`Sim::next_event`]), so a hop that schedules its successor costs
//! one heap sift, not two.

use crate::mac::{MacAction, MacTx, RegisterMac, RingNodeParams};
use crate::meters::RingMeters;
use crate::stack::NodeStack;
use ampnet_packet::{build, FrameArena, FrameRef, BROADCAST};
use ampnet_phy::LinkParams;
use ampnet_sim::{jain_fairness, Histogram, Sim, SimDuration, SimTime, TieClass};
use ampnet_telemetry::{defs, GaugeHandle, Telemetry, GLOBAL};
use std::collections::VecDeque;

/// Segment configuration.
#[derive(Debug, Clone)]
pub struct SegmentParams {
    /// Nodes on the ring (2..=255).
    pub n_nodes: usize,
    /// Per-hop fiber parameters.
    pub link: LinkParams,
    /// MAC parameters applied to every node.
    pub node: RingNodeParams,
    /// Register-insertion transit latency added at each node
    /// (elasticity buffer + one word re-timing).
    pub node_latency: SimDuration,
}

impl Default for SegmentParams {
    fn default() -> Self {
        SegmentParams {
            n_nodes: 4,
            link: LinkParams::default(),
            node: RingNodeParams::default(),
            node_latency: SimDuration::from_nanos(60),
        }
    }
}

/// A node is a `u32`, not a `usize`: that keeps every event at 16
/// bytes, the kernel's budget (`ampnet_sim::EVENT_BYTES`).
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Last byte of a frame arrived at `node`.
    Arrival { node: u32, frame: FrameRef },
    /// `node`'s output port finished serializing.
    TxDone { node: u32 },
    /// Next cell of `node`'s broadcast stream.
    Gen { node: u32 },
    /// Pacing governor may allow an insertion now.
    Retry { node: u32 },
}

/// Class 0 throughout: the segment's same-instant events pop in the
/// order they were scheduled.
impl TieClass for Ev {}

/// Measurement report for one [`Segment::run_for`] window.
///
/// `tour_latency` and `access_latency` cover this window only. Every
/// other field is cumulative since the segment was constructed, so a
/// caller that discards a warm-up window subtracts that window's
/// totals itself.
#[derive(Debug, Clone)]
pub struct SegmentReport {
    /// Sum over nodes of `would_drop` — the paper says always 0.
    pub drops: u64,
    /// Per-source delivered payload bytes (summed over receivers).
    pub per_source_bytes: Vec<u64>,
    /// Jain fairness over per-source delivered bytes.
    pub fairness: f64,
    /// Broadcast tour latency (insert → strip), ns. Moved out of the
    /// segment's accumulators — the segment starts a fresh histogram
    /// for any subsequent run window.
    pub tour_latency: Histogram,
    /// Stream access latency (enqueue → insert), ns (moved likewise).
    pub access_latency: Histogram,
    /// Packets generated, per node.
    pub generated: Vec<u64>,
    /// Packets delivered (copies counted per receiver).
    pub delivered_packets: u64,
}

/// A running ring segment.
pub struct Segment {
    params: SegmentParams,
    sim: Sim<Ev>,
    /// Pooled wire frames shared by every node on the segment.
    arena: FrameArena,
    nodes: Vec<NodeStack>,
    tx_busy: Vec<bool>,
    retry_pending: Vec<bool>,
    /// Mean gap of every node's broadcast stream, set with its first
    /// `Gen` events by [`Segment::all_to_all_broadcast`].
    mean_gap: SimDuration,
    meters: RingMeters,
    /// Insert instants of each node's broadcasts in flight (FIFO).
    tour_starts: Vec<VecDeque<SimTime>>,
    /// Packets generated, per node.
    generated: Vec<u64>,
    tour_latency: Histogram,
    access_latency: Histogram,
    seq: u64,
    /// Payload bytes delivered, per source node (summed over receivers).
    delivered_from: Vec<u64>,
    /// Shared registry (disabled unless [`Segment::enable_telemetry`]).
    tel: Telemetry,
    arena_slots_g: GaugeHandle,
    arena_live_g: GaugeHandle,
    arena_reused_g: GaugeHandle,
}

impl Segment {
    /// Build an idle segment.
    pub fn new(params: SegmentParams, seed: u64) -> Self {
        assert!(params.n_nodes >= 2, "a segment needs at least two nodes");
        let n = params.n_nodes;
        let nodes = (0..n)
            .map(|i| {
                NodeStack::with_defaults(i as u8, params.node, params.link, params.node_latency, n)
            })
            .collect::<Vec<_>>();
        Segment {
            sim: Sim::new(seed),
            arena: FrameArena::new(),
            tx_busy: vec![false; n],
            retry_pending: vec![false; n],
            mean_gap: SimDuration::ZERO,
            meters: RingMeters::new(params.node.n_streams),
            tour_starts: vec![VecDeque::new(); n],
            generated: vec![0; n],
            tour_latency: Histogram::new(),
            access_latency: Histogram::new(),
            delivered_from: vec![0; n],
            nodes,
            params,
            seq: 0,
            tel: Telemetry::disabled(),
            arena_slots_g: GaugeHandle::NONE,
            arena_live_g: GaugeHandle::NONE,
            arena_reused_g: GaugeHandle::NONE,
        }
    }

    /// Attach the segment to a shared [`Telemetry`] registry: every
    /// node stack registers its per-plane instruments, and the
    /// segment-wide ring histograms (`ring_tour_ns`, `ring_access_ns`)
    /// and arena gauges register globally. All registration happens
    /// here, so the subsequent run records without allocating.
    pub fn enable_telemetry(&mut self, tel: &Telemetry) {
        for stack in &mut self.nodes {
            stack.instrument(tel);
        }
        self.meters.instrument(tel);
        self.arena_slots_g = tel.gauge(&defs::ARENA_SLOTS, GLOBAL);
        self.arena_live_g = tel.gauge(&defs::ARENA_LIVE_FRAMES, GLOBAL);
        self.arena_reused_g = tel.gauge(&defs::ARENA_FRAMES_REUSED, GLOBAL);
        self.tel = tel.clone();
    }

    /// Sample the gauge-valued metrics (MAC water marks, governor
    /// backoffs, arena occupancy) into the registry. Counters and
    /// histograms are pushed live; call this right before a snapshot.
    pub fn publish_metrics(&self) {
        for stack in &self.nodes {
            stack.publish_metrics();
            stack.telemetry.set_backoffs(stack.mac.backoffs());
        }
        let stats = self.arena.stats();
        self.tel.set(self.arena_slots_g, self.arena.capacity() as i64);
        self.tel.set(self.arena_live_g, stats.peak_live as i64);
        self.tel.set(self.arena_reused_g, stats.reused as i64);
    }

    /// The shared frame pool (occupancy/reuse statistics).
    pub fn arena(&self) -> &FrameArena {
        &self.arena
    }

    /// Slide-8 scenario: every node broadcasts fixed Data cells on
    /// stream 0 as a Poisson process, at a given offered load (fraction
    /// of segment capacity; > 1 oversubscribes). Call once, before
    /// running.
    pub fn all_to_all_broadcast(&mut self, offered_load: f64) {
        let n = self.params.n_nodes;
        // Broadcast capacity of the ring is one packet on each link at
        // a time: aggregate insertion capacity ≈ line rate. Split the
        // offered aggregate across nodes.
        let pkt = build::data_broadcast(0, 0, [0; 8]);
        let pkt_time = self.params.link.serialize_time(pkt.wire_bytes());
        let per_node_gap_ns = pkt_time.as_nanos() as f64 * n as f64 / offered_load.max(1e-9);
        self.mean_gap = SimDuration::from_nanos(per_node_gap_ns.round() as u64);
        for node in 0..n as u32 {
            self.sim.schedule_at(SimTime::ZERO, Ev::Gen { node });
        }
    }

    fn kick(&mut self, node: u32) {
        let i = node as usize;
        if self.tx_busy[i] {
            return;
        }
        let now = self.sim.now();
        match self.nodes[i].next_tx(now, &self.arena) {
            Some(MacTx { frame, own, stream }) => {
                // A transit frame is pooled; an own cell is pooled as
                // it goes on the wire.
                let handle = if own {
                    if let Some(wait) = self.meters.inserted(i, stream, now) {
                        self.access_latency.record(wait);
                    }
                    if frame.ctrl.is_broadcast() {
                        self.tour_starts[i].push_back(now);
                    }
                    frame.pool(&mut self.arena)
                } else {
                    frame.frame
                };
                let (ser, latency) = self.nodes[i].phy.hop_timing(frame.wire_bytes as usize);
                let next = (i + 1) % self.params.n_nodes;
                self.tx_busy[i] = true;
                self.sim.schedule_in(ser, Ev::TxDone { node });
                self.sim.schedule_in(
                    latency,
                    Ev::Arrival {
                        node: next as u32,
                        frame: handle,
                    },
                );
            }
            None => {
                if !self.retry_pending[i] {
                    if let Some(at) = self.nodes[i].insert_retry_at(now) {
                        self.retry_pending[i] = true;
                        self.sim.schedule_at(at, Ev::Retry { node });
                    }
                }
            }
        }
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival { node, frame } => {
                let now = self.sim.now();
                let i = node as usize;
                match self.nodes[i].classify_arrival(now, &mut self.arena, frame) {
                    MacAction::Deliver(wf) => {
                        self.delivered_from[wf.ctrl.src as usize] += wf.payload_bytes as u64;
                        self.arena.release(wf.frame);
                    }
                    MacAction::DeliverAndForward(wf) => {
                        self.delivered_from[wf.ctrl.src as usize] += wf.payload_bytes as u64;
                    }
                    MacAction::Strip(_) => {
                        if let Some(t0) = self.tour_starts[i].pop_front() {
                            let tour = self.meters.toured(t0, now);
                            self.tour_latency.record(tour);
                        }
                    }
                    MacAction::Forward => {}
                }
                self.kick(node);
            }
            Ev::TxDone { node } => {
                self.tx_busy[node as usize] = false;
                self.kick(node);
            }
            Ev::Gen { node } => {
                self.seq += 1;
                let i = node as usize;
                let pkt = build::data(node as u8, BROADCAST, 0, self.seq.to_be_bytes());
                self.generated[i] += 1;
                self.meters.enqueued(i, 0, self.sim.now());
                self.nodes[i].enqueue(&mut self.arena, 0, &pkt);
                let mean_ns = self.mean_gap.as_nanos().max(1) as f64;
                let gap = self.sim.rng().exponential(mean_ns);
                self.sim
                    .schedule_in(SimDuration::from_nanos(gap.round() as u64), Ev::Gen { node });
                self.kick(node);
            }
            Ev::Retry { node } => {
                self.retry_pending[node as usize] = false;
                self.kick(node);
            }
        }
    }

    /// Run until `deadline` of simulated time, then report. Events are
    /// handled one at a time; the kernel fuses each pop with the
    /// handler's first schedule (see [`Sim::next_event`]).
    pub fn run_for(&mut self, duration: SimDuration) -> SegmentReport {
        let deadline = self.sim.now() + duration;
        while let Some((_, ev)) = self.sim.next_event(deadline) {
            self.handle(ev);
        }
        self.report()
    }

    /// Access a node's MAC plane (tests).
    pub fn node(&self, i: usize) -> &RegisterMac {
        &self.nodes[i].mac
    }

    /// Simulation events popped from this segment's kernel so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.processed()
    }

    fn report(&mut self) -> SegmentReport {
        let per_source = self.delivered_from.clone();
        let delivered_packets = self.nodes.iter().map(|s| s.mac.stats().delivered).sum();
        let drops: u64 = self.nodes.iter().map(|s| s.mac.stats().would_drop).sum();
        // Every node is a source once the broadcast runs; before it all
        // counts are 0, which Jain rates 1.0 as it does no sources.
        let sources: Vec<f64> = per_source.iter().map(|&b| b as f64).collect();
        SegmentReport {
            drops,
            fairness: jain_fairness(&sources),
            per_source_bytes: per_source,
            // Hand the accumulated histograms to the report instead of
            // cloning their 8 KiB bucket arrays.
            tour_latency: std::mem::take(&mut self.tour_latency),
            access_latency: std::mem::take(&mut self.access_latency),
            generated: self.generated.clone(),
            delivered_packets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params(n: usize) -> SegmentParams {
        SegmentParams {
            n_nodes: n,
            link: LinkParams::gigabit(10.0),
            ..Default::default()
        }
    }

    #[test]
    fn an_event_is_at_the_kernels_budget() {
        assert_eq!(
            std::mem::size_of::<Ev>(),
            ampnet_sim::EVENT_BYTES,
            "a usize node makes every heap entry 40 bytes, not 32"
        );
    }

    #[test]
    fn idle_segment_does_nothing() {
        let mut seg = Segment::new(quick_params(4), 1);
        let r = seg.run_for(SimDuration::from_micros(100));
        assert_eq!(r.drops, 0);
        assert_eq!(r.delivered_packets, 0);
    }

    #[test]
    fn all_to_all_broadcast_never_drops() {
        // The slide-8 guarantee, at 2x oversubscription.
        let mut seg = Segment::new(quick_params(8), 7);
        seg.all_to_all_broadcast(2.0);
        let r = seg.run_for(SimDuration::from_millis(2));
        assert_eq!(r.drops, 0, "register insertion must never drop");
        assert!(r.delivered_packets > 0);
        let occupancy = (0..8).map(|i| seg.node(i).stats().transit_highwater).max();
        assert!(
            occupancy <= Some(2 * crate::mac::MAX_PACKET_WIRE),
            "occupancy {occupancy:?} exceeded structural bound"
        );
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let run = |seed| {
            let mut seg = Segment::new(quick_params(5), seed);
            seg.all_to_all_broadcast(1.0);
            let r = seg.run_for(SimDuration::from_millis(1));
            (r.delivered_packets, r.per_source_bytes)
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn telemetry_counters_match_report() {
        let mut seg = Segment::new(quick_params(4), 21);
        let tel = Telemetry::new(256);
        seg.enable_telemetry(&tel);
        seg.all_to_all_broadcast(1.0);
        let r = seg.run_for(SimDuration::from_millis(1));
        seg.publish_metrics();
        let snap = tel.snapshot();
        assert_eq!(
            snap.counter_total("delivery_frames"),
            r.delivered_packets,
            "registry must agree with the report"
        );
        assert!(snap.counter_total("mac_inserted") > 0);
        assert!(snap.counter_total("mac_stripped") > 0);
        let hists = [("ring_tour_ns", &r.tour_latency), ("ring_access_ns", &r.access_latency)];
        for (name, h) in hists {
            match snap.get(name, None).expect("registered").value {
                ampnet_telemetry::SnapValue::Hist { count, sum, .. } => {
                    assert_eq!((count, sum), (h.count(), h.sum()), "{name}")
                }
                _ => panic!("{name} must be a histogram"),
            }
        }
        assert!(tel.flight_recorded() > 0, "plane events must hit the recorder");
        assert!(tel.flight_dump().contains("deliver <- node"));
    }

    #[test]
    fn steady_state_forwarding_reuses_arena_slots() {
        // Below capacity, queues drain: pool size tracks what is
        // physically in flight, not the total packet count.
        let mut seg = Segment::new(quick_params(6), 13);
        seg.all_to_all_broadcast(0.8);
        seg.run_for(SimDuration::from_millis(2));
        let stats = seg.arena().stats();
        assert!(
            stats.reused > stats.acquired / 2,
            "most frames must reuse recycled slots: {stats:?}"
        );
        assert!(
            seg.arena().capacity() < 200,
            "arena grew unboundedly: {}",
            seg.arena().capacity()
        );
    }
}
