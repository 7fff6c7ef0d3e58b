//! Property test: the frame arena against a flat model — a list of
//! live `(handle, packet)` pairs. Random inserts of every packet type
//! (every DMA length, random fields and bytes) interleave with releases
//! of random live handles; after every step each live frame reads back
//! exactly, the counts match the model, and DMA bodies track the DMA
//! frames alone.

use ampnet_packet::{
    Body, ControlWord, DmaCtrl, Flags, FrameArena, FrameRef, MicroPacket, PacketType,
    MAX_DMA_PAYLOAD,
};
use proptest::prelude::*;

/// Bytes of one frame head and of one DMA body.
const HEAD_BYTES: usize = 24;
const BODY_BYTES: usize = MAX_DMA_PAYLOAD;

#[derive(Debug, Clone)]
enum Op {
    Insert(MicroPacket),
    Release(prop::sample::Index),
}

/// `(src, dst, tag, flag bits)` of a control word.
fn arb_addr() -> impl Strategy<Value = (u8, u8, u8, u8)> {
    (any::<u8>(), any::<u8>(), any::<u8>(), 0u8..16)
}

fn control(ptype: PacketType, (src, dst, tag, flags): (u8, u8, u8, u8)) -> ControlWord {
    let mut ctrl = ControlWord::new(ptype, src, dst, tag);
    ctrl.flags = Flags::from_bits_truncate(flags);
    ctrl
}

fn arb_fixed() -> impl Strategy<Value = MicroPacket> {
    let fixed_types = PacketType::ALL
        .into_iter()
        .filter(|&t| t != PacketType::Dma)
        .collect();
    (prop::sample::select(fixed_types), arb_addr(), any::<[u8; 8]>()).prop_map(
        |(t, addr, payload)| MicroPacket::new(control(t, addr), Body::Fixed(payload)).unwrap(),
    )
}

fn arb_dma() -> impl Strategy<Value = MicroPacket> {
    (
        arb_addr(),
        (0u8..16, any::<u8>(), any::<u32>()),
        1u16..=MAX_DMA_PAYLOAD as u16,
        any::<[u8; MAX_DMA_PAYLOAD]>(),
    )
        .prop_map(|(addr, (channel, region, offset), len, data)| {
            let ctrl = DmaCtrl { channel, region, offset, len };
            MicroPacket::new(control(PacketType::Dma, addr), Body::Variable { ctrl, data })
                .unwrap()
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_fixed().prop_map(Op::Insert),
        arb_dma().prop_map(Op::Insert),
        any::<prop::sample::Index>().prop_map(Op::Release),
    ]
}

fn dma_ctrl(p: &MicroPacket) -> Option<DmaCtrl> {
    match &p.body {
        Body::Variable { ctrl, .. } => Some(*ctrl),
        Body::Fixed(_) => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arena_matches_a_flat_model(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut arena = FrameArena::new();
        let mut model: Vec<(FrameRef, MicroPacket)> = Vec::new();
        let (mut peak_live, mut peak_dma) = (0usize, 0usize);
        for op in ops {
            match op {
                Op::Insert(pkt) => {
                    let f = arena.insert(&pkt);
                    model.push((f, pkt));
                }
                Op::Release(idx) => {
                    if model.is_empty() {
                        continue;
                    }
                    let (f, _) = model.swap_remove(idx.index(model.len()));
                    arena.release(f);
                }
            }
            let live_dma = model.iter().filter(|(_, p)| dma_ctrl(p).is_some()).count();
            peak_live = peak_live.max(model.len());
            peak_dma = peak_dma.max(live_dma);

            for (f, pkt) in &model {
                prop_assert_eq!(&arena.decode(*f), pkt);
                prop_assert_eq!(arena.header(*f), (pkt.ctrl, dma_ctrl(pkt)));
            }
            prop_assert_eq!(arena.live(), model.len());
            // A slot is created only when every slot is live, so the
            // slots ever created are the peak of live frames.
            prop_assert_eq!(arena.capacity(), peak_live);
            let body_bytes = arena.resident_bytes() - HEAD_BYTES * arena.capacity();
            prop_assert_eq!(body_bytes % BODY_BYTES, 0);
            let bodies = body_bytes / BODY_BYTES;
            prop_assert!(
                bodies <= peak_dma,
                "{} bodies for at most {} live DMA frames",
                bodies,
                peak_dma
            );
        }
    }
}
