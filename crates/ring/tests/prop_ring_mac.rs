//! Property tests for the register-insertion ring MAC:
//! conservation (no loss, no duplication), per-stream FIFO at the
//! receiver, and the structural no-drop bound — under arbitrary
//! workloads; and the packet arena every hop reads.

use ampnet_packet::{
    Body, ControlWord, DmaCtrl, Flags, FrameArena, LengthClass, MicroPacket, PacketType,
    MAX_DMA_PAYLOAD,
};
use ampnet_ring::{
    ArrivalProcess, DstPattern, PacingMode, PacketKind, Segment, SegmentParams, StreamWorkload,
    WireFrame, MAX_PACKET_WIRE,
};
use ampnet_phy::LinkParams;
use ampnet_sim::SimDuration;
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
        let mut seen = std::collections::HashSet::new();
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
            prop_assert_eq!(hop.wire_bytes as usize, p.wire_bytes());
            prop_assert_eq!(hop.payload_bytes as usize, p.payload_bytes());
            prop_assert_eq!(arena.decode(wf.frame), p);
            arena.release(wf.frame);
        }
        prop_assert_eq!(arena.capacity(), 1, "one slot, reused by every case");
    }
}
