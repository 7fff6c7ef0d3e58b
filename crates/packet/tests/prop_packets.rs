//! Property tests: MicroPacket encode/decode is a bijection on valid
//! packets, and wire sizes always match the slide-5/6 formats.

use ampnet_packet::build::{self, AtomicOp, AtomicRequest, InterruptPayload};
use ampnet_packet::{
    Body, ControlWord, DmaCtrl, MicroPacket, PacketType, FIXED_PAYLOAD, MAX_FRAME_WORDS,
};
use proptest::prelude::*;

/// The byte-level reference encoding the zero-copy paths must match.
fn encoded(p: &MicroPacket) -> Vec<u8> {
    let mut bytes = Vec::new();
    p.encode(&mut bytes);
    bytes
}

fn arb_fixed_type() -> impl Strategy<Value = PacketType> {
    prop::sample::select(vec![
        PacketType::Rostering,
        PacketType::Data,
        PacketType::Interrupt,
        PacketType::Diagnostic,
        PacketType::D64Atomic,
    ])
}

proptest! {
    #[test]
    fn fixed_roundtrip(
        t in arb_fixed_type(),
        src in any::<u8>(),
        dst in any::<u8>(),
        tag in any::<u8>(),
        payload in any::<[u8; FIXED_PAYLOAD]>(),
    ) {
        let p = MicroPacket::new(ControlWord::new(t, src, dst, tag), Body::Fixed(payload)).unwrap();
        let bytes = encoded(&p);
        prop_assert_eq!(bytes.len(), 12);
        prop_assert_eq!(MicroPacket::decode(&bytes).unwrap(), p);
    }

    #[test]
    fn variable_roundtrip(
        src in any::<u8>(),
        dst in any::<u8>(),
        stream in any::<u8>(),
        channel in 0u8..16,
        region in any::<u8>(),
        offset in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 1..=64),
    ) {
        let ctrl = DmaCtrl { channel, region, offset, len: 0 };
        let p = build::dma(src, dst, stream, ctrl, &payload).unwrap();
        let bytes = encoded(&p);
        prop_assert_eq!(bytes.len() % 4, 0);
        let back = MicroPacket::decode(&bytes).unwrap();
        prop_assert_eq!(back.dma_payload().unwrap(), &payload[..]);
        prop_assert_eq!(back.ctrl, p.ctrl);
        // Wire size: SOF + control + 2 DMA + ceil(len/4) payload + EOF.
        let expect_words = 3 + payload.len().div_ceil(4);
        prop_assert_eq!(p.wire_bytes(), (expect_words + 2) * 4);
    }

    #[test]
    fn efficiency_bounds(
        payload in proptest::collection::vec(any::<u8>(), 1..=64),
    ) {
        let ctrl = DmaCtrl { channel: 0, region: 0, offset: 0, len: 0 };
        let p = build::dma(0, 1, 0, ctrl, &payload).unwrap();
        let e = p.efficiency();
        prop_assert!(e > 0.0 && e < 1.0);
        // Full DMA packets are the most efficient micropacket.
        if payload.len() == 64 {
            prop_assert!(e > 0.75);
        }
    }

    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let _ = MicroPacket::decode(&bytes);
    }

    /// The word codec sees only words from outside the simulation (the
    /// arena never parses its own frames), so it must reject garbage
    /// without panicking — and whatever it accepts must be a packet
    /// that re-encodes to exactly those words. Half the cases are
    /// steered onto a valid type code and a matching length so the
    /// accepting branch is exercised, not just the rejections.
    #[test]
    fn decode_ref_never_panics_on_garbage_words(
        mut words in proptest::collection::vec(any::<u32>(), 0..24),
        steer in any::<bool>(),
        code in 1u32..=6,
        dma_len in 1u32..=64,
    ) {
        if steer {
            let dma = code == PacketType::Dma.code() as u32;
            let n = if dma { 3 + dma_len.div_ceil(4) as usize } else { 3 };
            words.resize(n, 0x5A5A_5A5A);
            words[0] = (words[0] & 0x0FFF_FFFF) | (code << 28);
            if dma {
                words[2] = (words[2] & 0xFFFF_0000) | dma_len;
            }
        }
        let parsed = MicroPacket::decode_ref(&words);
        prop_assert!(!steer || parsed.is_ok(), "steered words must parse: {:?}", words);
        if let Ok(view) = parsed {
            let p = view.to_packet();
            prop_assert_eq!(view.wire_bytes(), p.wire_bytes());
            prop_assert_eq!(view.payload_bytes(), p.payload_bytes());
            let mut again = [0u32; MAX_FRAME_WORDS];
            let n = p.encode_into(&mut again).unwrap();
            prop_assert_eq!(&again[..n], &words[..]);
            prop_assert_eq!(MicroPacket::decode_ref(&again[..n]).unwrap().to_packet(), p);
        }
    }

    #[test]
    fn decode_garbage_with_valid_sizes(words in 3usize..20, fill in any::<u8>()) {
        let bytes = vec![fill; words * 4];
        let _ = MicroPacket::decode(&bytes);
    }

    #[test]
    fn atomic_payload_bijection(
        op_idx in 0usize..5,
        region in any::<u8>(),
        word_index in 0u32..(1 << 24),
        operand in any::<u32>(),
        src in any::<u8>(),
        home in any::<u8>(),
    ) {
        let ops = [AtomicOp::TestAndSet, AtomicOp::Clear, AtomicOp::FetchAdd, AtomicOp::Swap, AtomicOp::Read];
        let req = AtomicRequest { op: ops[op_idx], region, offset: word_index * 8, operand };
        let p = build::atomic_request(src, home, req);
        prop_assert_eq!(build::parse_atomic_request(&p), Some(req));
        // And the encoded packet survives the wire.
        let back = MicroPacket::decode(&encoded(&p)).unwrap();
        prop_assert_eq!(build::parse_atomic_request(&back), Some(req));
    }

    #[test]
    fn interrupt_payload_bijection(
        vector in any::<u16>(),
        cookie in any::<u16>(),
        arg in any::<u32>(),
    ) {
        let ip = InterruptPayload { vector, cookie, arg };
        let p = build::interrupt(1, 2, ip);
        prop_assert_eq!(build::parse_interrupt(&p), Some(ip));
    }

    #[test]
    fn atomic_response_bijection(prev in any::<u64>(), op_idx in 0usize..5) {
        let ops = [AtomicOp::TestAndSet, AtomicOp::Clear, AtomicOp::FetchAdd, AtomicOp::Swap, AtomicOp::Read];
        let p = build::atomic_response(3, 4, ops[op_idx], prev);
        prop_assert_eq!(build::parse_atomic_response(&p), Some((ops[op_idx], prev)));
    }
}
