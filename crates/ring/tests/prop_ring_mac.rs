//! Property tests for the register-insertion ring MAC's planes: the
//! packet arena every hop reads, and the stack's arrival path against
//! the MAC's own decision, taken through the stack's public planes.
//! The end-to-end properties (no drop, exactly-once broadcast,
//! per-stream FIFO, private unicast) run on `Cluster`, in
//! `ampnet-core`'s `tests/prop_ring_mac.rs`.

use ampnet_packet::{
    Body, ControlWord, DmaCtrl, Flags, FrameArena, FrameRef, LengthClass, MicroPacket,
    PacketType, BROADCAST, MAX_DMA_PAYLOAD,
};
use ampnet_ring::{MacAction, MacTx, NodeStack, PacingMode, RingNodeParams, WireFrame};
use ampnet_phy::LinkParams;
use ampnet_sim::{SimDuration, SimTime};
use proptest::prelude::*;

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
    /// the properties on `Cluster` check it.
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
