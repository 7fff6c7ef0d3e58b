//! Property tests for the register-insertion ring MAC:
//! conservation (no loss, no duplication), per-stream FIFO at the
//! receiver, and the structural no-drop bound — under arbitrary
//! workloads; the packet arena every hop reads; and the stack's
//! arrival path against the MAC's own decision, taken through the
//! stack's public planes.

use ampnet_packet::{
    Body, ControlWord, DmaCtrl, Flags, FrameArena, FrameRef, LengthClass, MicroPacket,
    PacketType, BROADCAST, MAX_DMA_PAYLOAD,
};
use ampnet_ring::{
    ArrivalProcess, DstPattern, MacAction, MacTx, NodeStack, PacingMode, PacketKind,
    RingNodeParams, Segment, SegmentParams, StreamWorkload, WireFrame, MAX_PACKET_WIRE,
};
use ampnet_phy::LinkParams;
use ampnet_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn arb_workload() -> impl Strategy<Value = StreamWorkload> {
    (
        0u8..3,
        prop_oneof![
            Just(PacketKind::Message),
            (1u16..=64).prop_map(PacketKind::File)
        ],
        prop_oneof![
            Just(DstPattern::Broadcast),
            (0u8..6).prop_map(DstPattern::Fixed),
            Just(DstPattern::RoundRobin)
        ],
        prop_oneof![
            (1u64..30).prop_map(ArrivalProcess::Burst),
            (200u64..5_000)
                .prop_map(|ns| ArrivalProcess::Poisson(SimDuration::from_nanos(ns)))
        ],
    )
        .prop_map(|(stream, kind, dst, arrivals)| StreamWorkload {
            stream,
            kind,
            dst,
            arrivals,
        })
}

fn segment_params(n: usize, greedy: bool) -> SegmentParams {
    let mut p = SegmentParams {
        n_nodes: n,
        link: LinkParams::gigabit(20.0),
        ..Default::default()
    };
    if greedy {
        p.node.pacing = PacingMode::Greedy;
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No packet is ever dropped and the insertion buffer never
    /// exceeds its structural bound, for any workload mix, with or
    /// without the adaptive governor.
    #[test]
    fn never_drops(
        n in 2usize..7,
        greedy in any::<bool>(),
        wls in proptest::collection::vec((0usize..7, arb_workload()), 1..6),
        seed in any::<u64>(),
    ) {
        let mut seg = Segment::new(segment_params(n, greedy), seed);
        for (node, w) in wls {
            let mut w = w;
            if let DstPattern::Fixed(d) = w.dst {
                w.dst = DstPattern::Fixed(d % n as u8);
            }
            seg.add_workload(node % n, w);
        }
        let r = seg.run_for(SimDuration::from_millis(1));
        prop_assert_eq!(r.drops, 0);
        prop_assert!(r.max_transit_occupancy <= 2 * MAX_PACKET_WIRE);
    }

    /// Broadcast conservation: every broadcast from a burst workload is
    /// delivered exactly once to every other node (run long enough to
    /// drain).
    #[test]
    fn broadcast_exactly_once_each(
        n in 2usize..6,
        count in 1u64..20,
        src in 0usize..6,
        seed in any::<u64>(),
    ) {
        let src = src % n;
        let mut seg = Segment::new(segment_params(n, false), seed);
        seg.collect_deliveries();
        seg.add_workload(src, StreamWorkload {
            stream: 0,
            kind: PacketKind::Message,
            dst: DstPattern::Broadcast,
            arrivals: ArrivalProcess::Burst(count),
        });
        let r = seg.run_for(SimDuration::from_millis(10));
        prop_assert_eq!(r.delivered_packets, count * (n as u64 - 1));
        // Exactly-once: group by (receiver, payload id).
        let mut seen = std::collections::BTreeSet::new();
        for (rcv, pkt) in seg.deliveries() {
            let key = (*rcv, *pkt.fixed_payload());
            prop_assert!(seen.insert(key), "duplicate delivery {:?}", key);
        }
    }

    /// Per-stream FIFO: a receiver sees one source's stream packets in
    /// insertion order (payload carries a global sequence number).
    #[test]
    fn receiver_sees_fifo_per_stream(
        n in 3usize..6,
        count in 2u64..25,
        seed in any::<u64>(),
    ) {
        let mut seg = Segment::new(segment_params(n, false), seed);
        seg.collect_deliveries();
        seg.add_workload(0, StreamWorkload {
            stream: 0,
            kind: PacketKind::Message,
            dst: DstPattern::Fixed(2),
            arrivals: ArrivalProcess::Burst(count),
        });
        seg.run_for(SimDuration::from_millis(10));
        let mut last = 0u64;
        let mut seen = 0;
        for (rcv, pkt) in seg.deliveries() {
            prop_assert_eq!(*rcv, 2usize);
            let seq = u64::from_be_bytes(*pkt.fixed_payload());
            prop_assert!(seq > last, "out of order: {} after {}", seq, last);
            last = seq;
            seen += 1;
        }
        prop_assert_eq!(seen, count);
    }

    /// Unicast packets never reach third parties.
    #[test]
    fn unicast_is_private(
        n in 3usize..7,
        count in 1u64..15,
        seed in any::<u64>(),
    ) {
        let dst = n - 1;
        let mut seg = Segment::new(segment_params(n, false), seed);
        seg.collect_deliveries();
        seg.add_workload(0, StreamWorkload {
            stream: 0,
            kind: PacketKind::File(32),
            dst: DstPattern::Fixed(dst as u8),
            arrivals: ArrivalProcess::Burst(count),
        });
        seg.run_for(SimDuration::from_millis(10));
        for (rcv, _) in seg.deliveries() {
            prop_assert_eq!(*rcv, dst);
        }
    }
}

/// Every packet type, and for DMA every length 1..=64, over one
/// pooled slot: the arena hands back the packet its source built, and
/// a hop's descriptor reports the packet's own sizes.
fn arena_cases(
    src: u8,
    dst: u8,
    tag: u8,
    flags: u8,
    dma: DmaCtrl,
    data: [u8; MAX_DMA_PAYLOAD],
) -> Vec<MicroPacket> {
    let mut out = Vec::new();
    for t in PacketType::ALL {
        let ctrl = ControlWord::new(t, src, dst, tag).with_flags(Flags::from_bits_truncate(flags));
        match t.length_class() {
            LengthClass::Fixed => {
                let fixed = std::array::from_fn(|i| data[i]);
                out.push(MicroPacket::new(ctrl, Body::Fixed(fixed)).unwrap());
            }
            LengthClass::Variable => out.extend((1..=MAX_DMA_PAYLOAD as u16).map(|len| {
                MicroPacket::new(ctrl, Body::Variable { ctrl: DmaCtrl { len, ..dma }, data })
                    .unwrap()
            })),
        }
    }
    out
}

proptest! {
    #[test]
    fn arena_returns_every_packet_and_its_sizes(
        src in any::<u8>(),
        dst in any::<u8>(),
        tag in any::<u8>(),
        flags in any::<u8>(),
        channel in 0u8..16,
        region in any::<u8>(),
        offset in any::<u32>(),
        data in any::<[u8; MAX_DMA_PAYLOAD]>(),
    ) {
        let dma = DmaCtrl { channel, region, offset, len: 0 };
        let mut arena = FrameArena::new();
        for p in arena_cases(src, dst, tag, flags, dma, data) {
            let wf = WireFrame::insert(&mut arena, &p);
            let hop = WireFrame::of(&arena, wf.frame);
            prop_assert_eq!(hop, wf);
            // The `u8` size fields hold every size exactly.
            prop_assert_eq!(Ok(hop.wire_bytes), u8::try_from(p.wire_bytes()));
            prop_assert_eq!(Ok(hop.payload_bytes), u8::try_from(p.payload_bytes()));
            prop_assert_eq!(arena.decode(wf.frame), p);
            arena.release(wf.frame);
        }
        prop_assert_eq!(arena.capacity(), 1, "one slot, reused by every case");
    }
}

/// `NodeStack::on_wire_arrival` written out through the stack's public
/// planes: the MAC decides, and a frame that leaves the ring here
/// (delivered unicast, stripped own frame) goes back to the pool. The
/// stacks it drives are not instrumented, so the stack's telemetry
/// calls are left out.
fn reference_on_wire_arrival(
    s: &mut NodeStack,
    now: SimTime,
    arena: &mut FrameArena,
    frame: FrameRef,
) -> MacAction {
    let action = s.mac.on_arrival(now, WireFrame::of(arena, frame));
    if let MacAction::Deliver(wf) | MacAction::Strip(wf) = action {
        arena.release(wf.frame);
    }
    action
}

type Arrival = fn(&mut NodeStack, SimTime, &mut FrameArena, FrameRef) -> MacAction;

/// One step of a two-node ring.
#[derive(Debug, Clone)]
enum Step {
    /// A frame built elsewhere arrives at node `at`.
    Arrive(usize, MicroPacket),
    /// Node `at` queues an own packet.
    Enqueue(usize, MicroPacket),
    /// Node `at`'s output port is free: what it sends arrives at the
    /// other node.
    Tx(usize),
}

/// Two ring nodes over one arena, with an arrival path under test.
struct TwoRing {
    arena: FrameArena,
    nodes: [NodeStack; 2],
    arrive: Arrival,
}

impl TwoRing {
    fn new(arrive: Arrival) -> Self {
        let params = RingNodeParams {
            pacing: PacingMode::Greedy,
            ..Default::default()
        };
        let node = |id| {
            NodeStack::with_defaults(id, params, LinkParams::default(), SimDuration::from_nanos(60), 3)
        };
        TwoRing { arena: FrameArena::new(), nodes: [node(0), node(1)], arrive }
    }

    fn step(&mut self, now: SimTime, step: &Step) -> (Option<MacTx>, Option<MacAction>) {
        match step {
            Step::Arrive(at, pkt) => {
                let f = self.arena.insert(pkt);
                (None, Some((self.arrive)(&mut self.nodes[*at], now, &mut self.arena, f)))
            }
            Step::Enqueue(at, pkt) => {
                self.nodes[*at].enqueue_packet(&mut self.arena, 0, pkt);
                (None, None)
            }
            Step::Tx(at) => {
                let Some(tx) = self.nodes[*at].next_tx(now, &self.arena) else {
                    return (None, None);
                };
                let next = &mut self.nodes[1 - at];
                let outcome = (self.arrive)(next, now, &mut self.arena, tx.frame.frame);
                (Some(tx), Some(outcome))
            }
        }
    }

    /// Everything the arrival path may change, in comparable form.
    fn state(&self) -> String {
        let nodes: Vec<_> = self.nodes.iter().map(|n| format!("{:?}", n.mac.stats())).collect();
        format!("{nodes:?} live {} {:?}", self.arena.live(), self.arena.stats())
    }
}

/// Any packet type between nodes 0 and 1 and a third party 2:
/// unicast, broadcast, and frames that are a node's own.
fn arb_packet() -> impl Strategy<Value = MicroPacket> {
    (
        0usize..PacketType::ALL.len(),
        0u8..3,
        prop_oneof![Just(BROADCAST), 0u8..3],
        1u16..=MAX_DMA_PAYLOAD as u16,
        any::<u8>(),
    )
        .prop_map(|(t, src, dst, len, fill)| {
            let t = PacketType::ALL[t];
            let ctrl = ControlWord::new(t, src, dst, fill);
            let body = match t.length_class() {
                LengthClass::Fixed => Body::Fixed([fill; 8]),
                LengthClass::Variable => Body::Variable {
                    ctrl: DmaCtrl { channel: fill % 16, region: fill, offset: 0, len },
                    data: [fill; MAX_DMA_PAYLOAD],
                },
            };
            MicroPacket::new(ctrl, body).unwrap()
        })
}

/// Half the steps free an output port, so queued frames move.
fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..2, arb_packet()).prop_map(|(at, p)| Step::Arrive(at, p)),
        (0usize..2, arb_packet()).prop_map(|(at, p)| Step::Enqueue(at, p)),
        (0usize..2).prop_map(Step::Tx),
        (0usize..2).prop_map(Step::Tx),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The shared arrival path (`classify_arrival` + release of a
    /// delivered unicast) does exactly what the MAC's decision spelled
    /// out does: same action, MAC counters and arena after every step.
    /// What a host copies out of a delivered frame is the driver's, and
    /// the `collect_deliveries` properties above check it.
    #[test]
    fn shared_arrival_path_matches_the_reference(
        steps in proptest::collection::vec(arb_step(), 1..80),
    ) {
        let mut shipped = TwoRing::new(NodeStack::on_wire_arrival);
        let mut reference = TwoRing::new(reference_on_wire_arrival);
        for (i, step) in steps.iter().enumerate() {
            let now = SimTime(i as u64 * 100);
            prop_assert_eq!(shipped.step(now, step), reference.step(now, step), "step {}: {:?}", i, step);
            prop_assert_eq!(shipped.state(), reference.state(), "after step {}: {:?}", i, step);
        }
    }
}
