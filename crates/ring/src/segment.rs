//! Standalone ring-segment simulator.
//!
//! Drives a ring of [`NodeStack`]s (SerialPhy → RegisterMac) over
//! serial links with the `ampnet-sim` kernel, plus
//! the synthetic workloads the paper's claims are tested with: slide
//! 7's mixed file/message streams (E3) and slide 8's simultaneous
//! all-to-all broadcast (E4).
//!
//! Packets are serialized once, at their source, into the segment's
//! shared [`FrameArena`]; arrival events and transit buffers carry
//! [`FrameRef`] handles, so the steady-state forwarding path performs
//! zero heap allocations. The event loop takes one event at a time;
//! the pop is fused with the handler's first schedule
//! ([`Sim::next_event`]), so a hop that schedules its successor costs
//! one heap sift, not two.

use crate::mac::{MacAction, MacTx, RegisterMac, RingNodeParams, WireFrame};
use crate::stack::NodeStack;
use crate::stream::StreamId;
use ampnet_packet::{build, DmaCtrl, FrameArena, FrameRef, MicroPacket};
use ampnet_phy::LinkParams;
use ampnet_sim::{jain_fairness, Histogram, Sim, SimDuration, SimTime, TieClass};
use ampnet_telemetry::{defs, GaugeHandle, HistHandle, Telemetry, GLOBAL};
use std::collections::VecDeque;

/// What a workload stream sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Fixed Data MicroPackets (8-byte messages).
    Message,
    /// DMA MicroPackets with the given payload length (file blocks).
    File(u16),
}

/// Where a workload stream sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DstPattern {
    /// Broadcast to the whole segment.
    Broadcast,
    /// A fixed destination node.
    Fixed(u8),
    /// Round-robin over the other nodes.
    RoundRobin,
}

/// Arrival process of a workload stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals with the given mean inter-arrival gap.
    Poisson(SimDuration),
    /// Always-backlogged: the queue is kept topped up.
    Saturating,
    /// Exactly `n` packets, back to back.
    Burst(u64),
}

/// One configured workload stream at one node.
#[derive(Debug, Clone, Copy)]
pub struct StreamWorkload {
    /// Which local stream queue it feeds.
    pub stream: StreamId,
    /// Packet shape.
    pub kind: PacketKind,
    /// Destination pattern.
    pub dst: DstPattern,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
}

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

impl SegmentParams {
    /// The quiet-network ring tour time: per hop, serialization of a
    /// fixed packet is pipelined, so a tour costs
    /// `n × (propagation + node latency)` plus one serialization.
    pub fn ring_tour(&self, wire_bytes: usize) -> SimDuration {
        let per_hop = self.link.propagation() + self.node_latency;
        per_hop.saturating_mul(self.n_nodes as u64) + self.link.serialize_time(wire_bytes)
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Last byte of a frame arrived at `node`.
    Arrival { node: usize, frame: FrameRef },
    /// `node`'s output port finished serializing.
    TxDone { node: usize },
    /// Workload arrival at `node`, workload index `w`.
    Gen { node: usize, w: usize },
    /// Pacing governor may allow an insertion now.
    Retry { node: usize },
}

/// Class 0 throughout: the segment's same-instant events pop in the
/// order they were scheduled.
impl TieClass for Ev {}

#[derive(Debug, Default, Clone)]
struct NodeMeters {
    /// Enqueue timestamps per stream (FIFO) for access latency.
    enqueue_times: Vec<VecDeque<SimTime>>,
    /// Insert timestamps (FIFO) of broadcast packets for tour latency.
    tour_starts: VecDeque<SimTime>,
    /// Packets generated by workloads.
    generated: u64,
}

/// Measurement report for one [`Segment::run_for`] window.
///
/// `duration`, `aggregate_goodput_mbps`, `tour_latency` and
/// `access_latency` cover this window only. Every other field is
/// cumulative since the segment was constructed, so a caller that
/// discards a warm-up window subtracts that window's totals itself.
#[derive(Debug, Clone)]
pub struct SegmentReport {
    /// Simulated length of this window.
    pub duration: SimDuration,
    /// Sum over nodes of `would_drop` — the paper says always 0.
    pub drops: u64,
    /// Payload delivered in this window over this window, MB/s.
    pub aggregate_goodput_mbps: f64,
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
    /// Per-node, per-stream payload bytes inserted (E3 shares).
    pub per_node_stream_bytes: Vec<Vec<u64>>,
    /// Peak insertion-buffer occupancy over all nodes, bytes.
    pub max_transit_occupancy: usize,
    /// Total governor back-offs (flow-control activity).
    pub backoffs: u64,
    /// Packets generated by workloads, per node.
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
    workloads: Vec<Vec<StreamWorkload>>,
    meters: Vec<NodeMeters>,
    tour_latency: Histogram,
    access_latency: Histogram,
    rr_next: Vec<u8>,
    seq: u64,
    /// Payload bytes delivered, per source node (summed over receivers).
    delivered_from: Vec<u64>,
    collect_deliveries: bool,
    deliveries: Vec<(usize, MicroPacket)>,
    /// Cumulative delivered payload at the last report (goodput is
    /// per-window, the delivery counters are not).
    reported_payload: u64,
    /// Shared registry (disabled unless [`Segment::enable_telemetry`]).
    tel: Telemetry,
    tour_h: HistHandle,
    access_h: HistHandle,
    arena_slots_g: GaugeHandle,
    arena_live_g: GaugeHandle,
    arena_reused_g: GaugeHandle,
}

impl Segment {
    /// Build a segment; workloads are added per node afterwards.
    pub fn new(params: SegmentParams, seed: u64) -> Self {
        assert!(params.n_nodes >= 2, "a segment needs at least two nodes");
        let nodes = (0..params.n_nodes)
            .map(|i| {
                NodeStack::with_defaults(
                    i as u8,
                    params.node,
                    params.link,
                    params.node_latency,
                    params.n_nodes,
                )
            })
            .collect::<Vec<_>>();
        let meters = (0..params.n_nodes)
            .map(|_| NodeMeters {
                enqueue_times: vec![VecDeque::new(); params.node.n_streams],
                tour_starts: VecDeque::new(),
                generated: 0,
            })
            .collect();
        Segment {
            sim: Sim::new(seed),
            arena: FrameArena::new(),
            tx_busy: vec![false; params.n_nodes],
            retry_pending: vec![false; params.n_nodes],
            workloads: vec![vec![]; params.n_nodes],
            meters,
            tour_latency: Histogram::new(),
            access_latency: Histogram::new(),
            rr_next: vec![0; params.n_nodes],
            delivered_from: vec![0; params.n_nodes],
            nodes,
            params,
            seq: 0,
            collect_deliveries: false,
            deliveries: vec![],
            reported_payload: 0,
            tel: Telemetry::disabled(),
            tour_h: HistHandle::NONE,
            access_h: HistHandle::NONE,
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
        self.tour_h = tel.histogram(&defs::RING_TOUR_NS, GLOBAL);
        self.access_h = tel.histogram(&defs::RING_ACCESS_NS, GLOBAL);
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

    /// Record every delivered packet for invariant checking (tests).
    pub fn collect_deliveries(&mut self) {
        self.collect_deliveries = true;
    }

    /// Packets delivered so far as (receiving node, packet) pairs;
    /// populated only after [`Segment::collect_deliveries`].
    pub fn deliveries(&self) -> &[(usize, MicroPacket)] {
        &self.deliveries
    }

    /// The shared frame pool (occupancy/reuse statistics).
    pub fn arena(&self) -> &FrameArena {
        &self.arena
    }

    /// Attach a workload stream to `node`; call before `run`.
    pub fn add_workload(&mut self, node: usize, w: StreamWorkload) {
        let idx = self.workloads[node].len();
        self.workloads[node].push(w);
        // Seed the generator event.
        self.sim.schedule_at(SimTime::ZERO, Ev::Gen { node, w: idx });
    }

    /// Convenience: slide-7 scenario — every node carries one file
    /// stream and one message stream, all broadcast.
    pub fn slide7_mixed_streams(&mut self) {
        for node in 0..self.params.n_nodes {
            self.add_workload(
                node,
                StreamWorkload {
                    stream: 0,
                    kind: PacketKind::File(64),
                    dst: DstPattern::Broadcast,
                    arrivals: ArrivalProcess::Saturating,
                },
            );
            self.add_workload(
                node,
                StreamWorkload {
                    stream: 1,
                    kind: PacketKind::Message,
                    dst: DstPattern::Broadcast,
                    arrivals: ArrivalProcess::Saturating,
                },
            );
        }
    }

    /// Convenience: slide-8 scenario — all-to-all broadcast at a given
    /// offered load (fraction of segment capacity; > 1 oversubscribes).
    pub fn all_to_all_broadcast(&mut self, offered_load: f64) {
        let n = self.params.n_nodes;
        // Broadcast capacity of the ring is one packet on each link at
        // a time: aggregate insertion capacity ≈ line rate. Split the
        // offered aggregate across nodes.
        let pkt = build::data_broadcast(0, 0, [0; 8]);
        let pkt_time = self.params.link.serialize_time(pkt.wire_bytes());
        let per_node_gap_ns = pkt_time.as_nanos() as f64 * n as f64 / offered_load.max(1e-9);
        for node in 0..n {
            self.add_workload(
                node,
                StreamWorkload {
                    stream: 0,
                    kind: PacketKind::Message,
                    dst: DstPattern::Broadcast,
                    arrivals: ArrivalProcess::Poisson(SimDuration::from_nanos(
                        per_node_gap_ns.round() as u64,
                    )),
                },
            );
        }
    }

    fn make_packet(&mut self, node: usize, w: &StreamWorkload) -> MicroPacket {
        let src = node as u8;
        let dst = match w.dst {
            DstPattern::Broadcast => ampnet_packet::BROADCAST,
            DstPattern::Fixed(d) => d,
            DstPattern::RoundRobin => {
                let n = self.params.n_nodes as u8;
                let mut d = self.rr_next[node] % n;
                if d == src {
                    d = (d + 1) % n;
                }
                self.rr_next[node] = d.wrapping_add(1) % n;
                d
            }
        };
        self.seq += 1;
        let tagbytes = self.seq.to_be_bytes();
        match w.kind {
            PacketKind::Message => build::data(src, dst, w.stream, tagbytes),
            #[expect(clippy::expect_used, reason = "dma length is bounded by the chunking above")]
            PacketKind::File(len) => build::dma(
                src,
                dst,
                w.stream,
                DmaCtrl {
                    channel: w.stream,
                    region: 0,
                    offset: 0,
                    len: 0,
                },
                &[0xA5u8; 64][..len.clamp(1, 64) as usize],
            )
            .expect("valid dma len"),
        }
    }

    fn enqueue_from_workload(&mut self, node: usize, w_idx: usize) {
        let w = self.workloads[node][w_idx];
        let pkt = self.make_packet(node, &w);
        let now = self.sim.now();
        self.meters[node].generated += 1;
        self.meters[node].enqueue_times[w.stream as usize].push_back(now);
        self.nodes[node].enqueue_packet(&mut self.arena, w.stream, &pkt);
    }

    fn kick(&mut self, node: usize) {
        if self.tx_busy[node] {
            return;
        }
        let now = self.sim.now();
        match self.nodes[node].next_tx(now, &self.arena) {
            Some(MacTx { frame, own, stream }) => {
                if own {
                    if let Some(s) = stream {
                        if let Some(t) = self.meters[node].enqueue_times[s as usize].pop_front() {
                            let wait = (now - t).as_nanos();
                            self.access_latency.record(wait);
                            self.tel.record(self.access_h, wait);
                        }
                    }
                    if frame.ctrl.is_broadcast() {
                        self.meters[node].tour_starts.push_back(now);
                    }
                }
                let (ser, latency) = self.nodes[node].phy.hop_timing(frame.wire_bytes as usize);
                let next = (node + 1) % self.params.n_nodes;
                self.tx_busy[node] = true;
                self.sim.schedule_in(ser, Ev::TxDone { node });
                self.sim.schedule_in(
                    latency,
                    Ev::Arrival {
                        node: next,
                        frame: frame.frame,
                    },
                );
            }
            None => {
                if !self.retry_pending[node] {
                    if let Some(at) = self.nodes[node].insert_retry_at(now) {
                        self.retry_pending[node] = true;
                        self.sim.schedule_at(at, Ev::Retry { node });
                    }
                }
            }
        }
    }

    /// The host side of a delivery at `node`: count the payload for its
    /// source and, when collecting, copy the packet out of its slot.
    fn deliver(&mut self, node: usize, wf: &WireFrame) {
        self.delivered_from[wf.ctrl.src as usize] += wf.payload_bytes as u64;
        if self.collect_deliveries {
            self.deliveries.push((node, self.arena.decode(wf.frame)));
        }
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival { node, frame } => {
                let now = self.sim.now();
                match self.nodes[node].classify_arrival(now, &mut self.arena, frame) {
                    MacAction::Deliver(wf) => {
                        self.deliver(node, &wf);
                        self.arena.release(wf.frame);
                    }
                    MacAction::DeliverAndForward(wf) => self.deliver(node, &wf),
                    MacAction::Strip(_) => {
                        if let Some(t0) = self.meters[node].tour_starts.pop_front() {
                            let tour = (now - t0).as_nanos();
                            self.tour_latency.record(tour);
                            self.tel.record(self.tour_h, tour);
                        }
                    }
                    MacAction::Forward => {}
                }
                self.kick(node);
            }
            Ev::TxDone { node } => {
                self.tx_busy[node] = false;
                // Saturating workloads refill when their own stream
                // drains (per-stream, so one backlogged stream cannot
                // starve another's generator).
                for w_idx in 0..self.workloads[node].len() {
                    let w = self.workloads[node][w_idx];
                    if matches!(w.arrivals, ArrivalProcess::Saturating)
                        && self.nodes[node].mac.streams_ref().queued_in(w.stream) < 2
                    {
                        self.enqueue_from_workload(node, w_idx);
                    }
                }
                self.kick(node);
            }
            Ev::Gen { node, w } => {
                let arrivals = self.workloads[node][w].arrivals;
                match arrivals {
                    ArrivalProcess::Poisson(mean_gap) => {
                        self.enqueue_from_workload(node, w);
                        let gap = self
                            .sim
                            .rng()
                            .exponential(mean_gap.as_nanos().max(1) as f64);
                        self.sim
                            .schedule_in(SimDuration::from_nanos(gap.round() as u64), Ev::Gen { node, w });
                        self.kick(node);
                    }
                    ArrivalProcess::Saturating => {
                        for _ in 0..4 {
                            self.enqueue_from_workload(node, w);
                        }
                        self.kick(node);
                    }
                    ArrivalProcess::Burst(n) => {
                        for _ in 0..n {
                            self.enqueue_from_workload(node, w);
                        }
                        self.kick(node);
                    }
                }
            }
            Ev::Retry { node } => {
                self.retry_pending[node] = false;
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
        self.report(duration)
    }

    /// Access a node's MAC plane (tests).
    pub fn node(&self, i: usize) -> &RegisterMac {
        &self.nodes[i].mac
    }

    /// Simulation events popped from this segment's kernel so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.processed()
    }

    fn report(&mut self, duration: SimDuration) -> SegmentReport {
        let per_source = self.delivered_from.clone();
        let total_payload: u64 = per_source.iter().sum();
        let delivered_packets = self.nodes.iter().map(|s| s.mac.stats().delivered).sum();
        let drops: u64 = self.nodes.iter().map(|s| s.mac.stats().would_drop).sum();
        let max_occ = self
            .nodes
            .iter()
            .map(|s| s.mac.stats().transit_highwater)
            .max()
            .unwrap_or(0);
        let backoffs = self.nodes.iter().map(|s| s.mac.backoffs()).sum();
        let active_sources: Vec<f64> = per_source
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.workloads[i].is_empty())
            .map(|(_, &b)| b as f64)
            .collect();
        let window_payload = total_payload - self.reported_payload;
        self.reported_payload = total_payload;
        SegmentReport {
            duration,
            drops,
            aggregate_goodput_mbps: window_payload as f64 / duration.as_secs_f64() / 1e6,
            fairness: jain_fairness(&active_sources),
            per_source_bytes: per_source,
            // Hand the accumulated histograms to the report instead of
            // cloning their 4 KiB bucket arrays.
            tour_latency: std::mem::take(&mut self.tour_latency),
            access_latency: std::mem::take(&mut self.access_latency),
            per_node_stream_bytes: self
                .nodes
                .iter()
                .map(|s| s.mac.streams_ref().sent_bytes())
                .collect(),
            max_transit_occupancy: max_occ,
            backoffs,
            generated: self.meters.iter().map(|m| m.generated).collect(),
            delivered_packets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pacing::PacingMode;

    fn quick_params(n: usize) -> SegmentParams {
        SegmentParams {
            n_nodes: n,
            link: LinkParams::gigabit(10.0),
            ..Default::default()
        }
    }

    #[test]
    fn idle_segment_does_nothing() {
        let mut seg = Segment::new(quick_params(4), 1);
        let r = seg.run_for(SimDuration::from_micros(100));
        assert_eq!(r.drops, 0);
        assert_eq!(r.aggregate_goodput_mbps, 0.0);
        assert_eq!(r.delivered_packets, 0);
    }

    #[test]
    fn single_broadcast_reaches_everyone_and_strips() {
        let mut seg = Segment::new(quick_params(4), 1);
        seg.add_workload(
            0,
            StreamWorkload {
                stream: 0,
                kind: PacketKind::Message,
                dst: DstPattern::Broadcast,
                arrivals: ArrivalProcess::Burst(1),
            },
        );
        let r = seg.run_for(SimDuration::from_millis(1));
        assert_eq!(r.delivered_packets, 3, "3 other nodes get a copy");
        assert_eq!(r.drops, 0);
        assert_eq!(r.tour_latency.count(), 1, "stripped exactly once");
        assert_eq!(seg.arena().live(), 0, "tour complete: frame recycled");
    }

    #[test]
    fn unicast_is_removed_by_destination() {
        let mut seg = Segment::new(quick_params(4), 1);
        seg.add_workload(
            0,
            StreamWorkload {
                stream: 0,
                kind: PacketKind::Message,
                dst: DstPattern::Fixed(2),
                arrivals: ArrivalProcess::Burst(5),
            },
        );
        let r = seg.run_for(SimDuration::from_millis(1));
        assert_eq!(r.delivered_packets, 5);
        assert_eq!(seg.node(3).stats().forwarded, 0, "nothing passes node 2");
        assert_eq!(r.drops, 0);
    }

    #[test]
    fn all_to_all_broadcast_never_drops() {
        // The slide-8 guarantee, at 2x oversubscription.
        let mut seg = Segment::new(quick_params(8), 7);
        seg.all_to_all_broadcast(2.0);
        let r = seg.run_for(SimDuration::from_millis(2));
        assert_eq!(r.drops, 0, "register insertion must never drop");
        assert!(r.delivered_packets > 0);
        assert!(
            r.max_transit_occupancy <= 2 * crate::mac::MAX_PACKET_WIRE,
            "occupancy {} exceeded structural bound",
            r.max_transit_occupancy
        );
    }

    #[test]
    fn greedy_mode_also_never_drops() {
        let mut params = quick_params(6);
        params.node.pacing = PacingMode::Greedy;
        let mut seg = Segment::new(params, 3);
        seg.all_to_all_broadcast(3.0);
        let r = seg.run_for(SimDuration::from_millis(2));
        assert_eq!(r.drops, 0, "no-drop must hold without the governor too");
    }

    #[test]
    fn mixed_streams_both_make_progress() {
        let mut seg = Segment::new(quick_params(4), 5);
        seg.slide7_mixed_streams();
        let r = seg.run_for(SimDuration::from_millis(2));
        assert_eq!(r.drops, 0);
        for (node, per_stream) in r.per_node_stream_bytes.iter().enumerate() {
            assert!(
                per_stream[0] > 0 && per_stream[1] > 0,
                "node {node}: both streams must progress, got {per_stream:?}"
            );
        }
    }

    #[test]
    fn saturated_ring_is_fair_across_sources() {
        let mut seg = Segment::new(quick_params(6), 9);
        seg.all_to_all_broadcast(3.0);
        let r = seg.run_for(SimDuration::from_millis(5));
        assert!(
            r.fairness > 0.85,
            "adaptive flow control should give fair shares, jain={}",
            r.fairness
        );
    }

    #[test]
    fn goodput_saturates_near_capacity() {
        let mut seg = Segment::new(quick_params(4), 11);
        seg.all_to_all_broadcast(1.5);
        let r = seg.run_for(SimDuration::from_millis(5));
        // Payload efficiency of a Data micropacket is 8/20 = 0.4;
        // aggregate broadcast goodput counts each receiver copy, so
        // ceiling ≈ line_bytes_rate × 0.4 × (n-1).
        let line_mbps = 106.25;
        let ceiling = line_mbps * 0.4 * 3.0;
        assert!(
            r.aggregate_goodput_mbps > 0.5 * ceiling,
            "goodput {} far below ceiling {}",
            r.aggregate_goodput_mbps,
            ceiling
        );
        assert!(r.aggregate_goodput_mbps <= ceiling * 1.05);
    }

    #[test]
    fn goodput_is_per_window_on_every_run_for() {
        let mut seg = Segment::new(quick_params(4), 11);
        seg.all_to_all_broadcast(1.5);
        let first = seg.run_for(SimDuration::from_millis(20)).aggregate_goodput_mbps;
        let second = seg.run_for(SimDuration::from_millis(5)).aggregate_goodput_mbps;
        // Line rate × 8/20 payload efficiency × (n−1) receiver copies,
        // at the simulated line's ns-quantised serialize time (188 ns
        // per 20-byte cell, a hair above the nominal 106.25 MB/s).
        let ceiling = quick_params(4).link.effective_mbps(20, 8) * 3.0;
        assert!(
            first <= ceiling && second <= ceiling,
            "goodput {first} / {second} above the {ceiling} ceiling"
        );
        assert!(
            (first - second).abs() <= 0.05 * first,
            "saturated windows must agree: {first} vs {second}"
        );
    }

    #[test]
    fn tour_latency_close_to_quiet_ring_tour_when_idle() {
        let mut seg = Segment::new(quick_params(8), 2);
        seg.add_workload(
            3,
            StreamWorkload {
                stream: 0,
                kind: PacketKind::Message,
                dst: DstPattern::Broadcast,
                arrivals: ArrivalProcess::Burst(1),
            },
        );
        let r = seg.run_for(SimDuration::from_millis(1));
        let quiet = quick_params(8).ring_tour(20).as_nanos();
        let measured = r.tour_latency.max();
        assert!(
            measured >= quiet && measured < quiet * 3,
            "tour {measured} vs quiet {quiet}"
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
    fn round_robin_dst_skips_self() {
        let mut seg = Segment::new(quick_params(3), 1);
        seg.add_workload(
            1,
            StreamWorkload {
                stream: 0,
                kind: PacketKind::Message,
                dst: DstPattern::RoundRobin,
                arrivals: ArrivalProcess::Burst(10),
            },
        );
        let r = seg.run_for(SimDuration::from_millis(1));
        assert_eq!(r.delivered_packets, 10);
        // Node 1 generated; nodes 0 and 2 received.
        assert_eq!(seg.node(1).stats().delivered, 0);
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
        let tour = snap.get("ring_tour_ns", None).expect("registered");
        match tour.value {
            ampnet_telemetry::SnapValue::Hist { count, .. } => {
                assert_eq!(count, r.tour_latency.count())
            }
            _ => panic!("ring_tour_ns must be a histogram"),
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
