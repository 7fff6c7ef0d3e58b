//! Typed constructors and payload views for each MicroPacket type.
//!
//! The raw 8-byte fixed payload is untyped on the wire; this module
//! defines how each packet type lays out those bytes, so higher layers
//! (network cache, rostering, DK) never touch raw offsets.

use crate::control::{ControlWord, Flags, BROADCAST};
use crate::types::{LengthClass, PacketType};
use crate::wire::{Body, DmaCtrl, MicroPacket, FIXED_PAYLOAD, MAX_DMA_PAYLOAD};

/// D64 Atomic opcodes (Control 3 tag of a D64 packet).
///
/// These are the primitives AmpNet's network semaphores are built on
/// (slide 10): a test-and-set for locks, add for counting semaphores,
/// swap/read for state words. All operate on one 64-bit word of a
/// network cache region, executed at the word's home node, with the
/// *previous* value returned in a RESPONSE packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AtomicOp {
    /// Set the word to 1; return previous value.
    TestAndSet = 0x1,
    /// Set the word to 0; return previous value.
    Clear = 0x2,
    /// Add the sign-extended 32-bit operand; return previous value.
    FetchAdd = 0x3,
    /// Replace low 32 bits with the operand (zero-extended); return
    /// previous value.
    Swap = 0x4,
    /// Return current value without modifying.
    Read = 0x5,
}

impl AtomicOp {
    /// Parse from the tag byte.
    pub fn from_tag(tag: u8) -> Option<AtomicOp> {
        match tag {
            0x1 => Some(AtomicOp::TestAndSet),
            0x2 => Some(AtomicOp::Clear),
            0x3 => Some(AtomicOp::FetchAdd),
            0x4 => Some(AtomicOp::Swap),
            0x5 => Some(AtomicOp::Read),
            _ => None,
        }
    }
}

/// Decoded D64 Atomic request payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicRequest {
    /// Operation to perform.
    pub op: AtomicOp,
    /// Target network cache region.
    pub region: u8,
    /// Word-aligned byte offset within the region (must be 8-aligned).
    pub offset: u32,
    /// 32-bit operand (addend for FetchAdd, new value for Swap).
    pub operand: u32,
}

/// Decoded interrupt payload: a vector number and a 32-bit argument,
/// with a 16-bit cookie for request/response matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterruptPayload {
    /// Interrupt vector at the destination node.
    pub vector: u16,
    /// Correlation cookie.
    pub cookie: u16,
    /// Argument word.
    pub arg: u32,
}

/// Diagnostic sub-operations (Control 3 tag of a Diagnostic packet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DiagOp {
    /// Echo request: destination must return the payload unchanged.
    Echo = 0x1,
    /// Region CRC audit request: payload names region + expected CRC.
    CrcAudit = 0x2,
    /// Certification sweep after rostering (slide 18): node reports
    /// its self-test verdict.
    Certify = 0x3,
}

impl DiagOp {
    /// Parse from the tag byte.
    pub fn from_tag(tag: u8) -> Option<DiagOp> {
        match tag {
            0x1 => Some(DiagOp::Echo),
            0x2 => Some(DiagOp::CrcAudit),
            0x3 => Some(DiagOp::Certify),
            _ => None,
        }
    }
}

/// The one constructor behind every fixed-format builder below. A
/// fixed body on a fixed-class type is exactly what
/// [`MicroPacket::new`] accepts, so there is no error to handle.
fn fixed(ctrl: ControlWord, payload: [u8; FIXED_PAYLOAD]) -> MicroPacket {
    debug_assert_eq!(ctrl.ptype.length_class(), LengthClass::Fixed);
    MicroPacket {
        ctrl,
        body: Body::Fixed(payload),
    }
}

/// Build a Data MicroPacket carrying 8 payload bytes on `stream`.
pub fn data(src: u8, dst: u8, stream: u8, payload: [u8; FIXED_PAYLOAD]) -> MicroPacket {
    fixed(
        ControlWord::new(PacketType::Data, src, dst, stream),
        payload,
    )
}

/// Build a broadcast Data packet.
pub fn data_broadcast(src: u8, stream: u8, payload: [u8; FIXED_PAYLOAD]) -> MicroPacket {
    data(src, BROADCAST, stream, payload)
}

/// Build a DMA MicroPacket. `payload` must be 1..=64 bytes.
pub fn dma(
    src: u8,
    dst: u8,
    stream: u8,
    ctrl: DmaCtrl,
    payload: &[u8],
) -> Result<MicroPacket, crate::wire::PacketError> {
    assert!(
        !payload.is_empty() && payload.len() <= MAX_DMA_PAYLOAD,
        "dma payload {} out of range",
        payload.len()
    );
    let mut data = [0u8; MAX_DMA_PAYLOAD];
    data[..payload.len()].copy_from_slice(payload);
    let ctrl = DmaCtrl {
        len: payload.len() as u16,
        ..ctrl
    };
    MicroPacket::new(
        ControlWord::new(PacketType::Dma, src, dst, stream),
        Body::Variable { ctrl, data },
    )
}

/// Build a Rostering MicroPacket; `kind` goes in the tag, `payload`
/// carries the roster protocol message (defined by `ampnet-roster`).
pub fn rostering(src: u8, kind: u8, payload: [u8; FIXED_PAYLOAD]) -> MicroPacket {
    fixed(
        ControlWord::new(PacketType::Rostering, src, BROADCAST, kind)
            .with_flags(Flags::URGENT),
        payload,
    )
}

/// Build an Interrupt MicroPacket.
pub fn interrupt(src: u8, dst: u8, p: InterruptPayload) -> MicroPacket {
    let mut payload = [0u8; FIXED_PAYLOAD];
    payload[..2].copy_from_slice(&p.vector.to_be_bytes());
    payload[2..4].copy_from_slice(&p.cookie.to_be_bytes());
    payload[4..8].copy_from_slice(&p.arg.to_be_bytes());
    fixed(
        ControlWord::new(PacketType::Interrupt, src, dst, 0).with_flags(Flags::URGENT),
        payload,
    )
}

/// Parse an Interrupt payload.
pub fn parse_interrupt(p: &MicroPacket) -> Option<InterruptPayload> {
    if p.ctrl.ptype != PacketType::Interrupt {
        return None;
    }
    let b = p.fixed_payload();
    Some(InterruptPayload {
        vector: u16::from_be_bytes([b[0], b[1]]),
        cookie: u16::from_be_bytes([b[2], b[3]]),
        arg: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
    })
}

/// Build a D64 Atomic request.
pub fn atomic_request(src: u8, home: u8, req: AtomicRequest) -> MicroPacket {
    debug_assert_eq!(req.offset % 8, 0, "D64 offsets are word-aligned");
    let mut payload = [0u8; FIXED_PAYLOAD];
    payload[0] = req.region;
    // Offsets are stored as word indices so 24 bits cover 128 MB.
    let word_index = req.offset / 8;
    payload[1..4].copy_from_slice(&word_index.to_be_bytes()[1..4]);
    payload[4..8].copy_from_slice(&req.operand.to_be_bytes());
    fixed(
        ControlWord::new(PacketType::D64Atomic, src, home, req.op as u8),
        payload,
    )
}

/// Parse a D64 Atomic request.
pub fn parse_atomic_request(p: &MicroPacket) -> Option<AtomicRequest> {
    if p.ctrl.ptype != PacketType::D64Atomic || p.ctrl.flags.contains(Flags::RESPONSE) {
        return None;
    }
    let op = AtomicOp::from_tag(p.ctrl.tag)?;
    let b = p.fixed_payload();
    let word_index = u32::from_be_bytes([0, b[1], b[2], b[3]]);
    Some(AtomicRequest {
        op,
        region: b[0],
        offset: word_index * 8,
        operand: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
    })
}

/// Build a D64 Atomic response carrying the previous 64-bit value.
pub fn atomic_response(src: u8, dst: u8, op: AtomicOp, previous: u64) -> MicroPacket {
    fixed(
        ControlWord::new(PacketType::D64Atomic, src, dst, op as u8).with_flags(Flags::RESPONSE),
        previous.to_be_bytes(),
    )
}

/// Parse a D64 Atomic response into (op, previous value).
pub fn parse_atomic_response(p: &MicroPacket) -> Option<(AtomicOp, u64)> {
    if p.ctrl.ptype != PacketType::D64Atomic || !p.ctrl.flags.contains(Flags::RESPONSE) {
        return None;
    }
    let op = AtomicOp::from_tag(p.ctrl.tag)?;
    Some((op, u64::from_be_bytes(*p.fixed_payload())))
}

/// Build a Diagnostic MicroPacket.
pub fn diagnostic(src: u8, dst: u8, op: DiagOp, payload: [u8; FIXED_PAYLOAD]) -> MicroPacket {
    fixed(
        ControlWord::new(PacketType::Diagnostic, src, dst, op as u8),
        payload,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_constructor() {
        let p = data(1, 2, 5, [9; 8]);
        assert_eq!(p.ctrl.ptype, PacketType::Data);
        assert_eq!(p.ctrl.tag, 5);
        assert_eq!(p.fixed_payload(), &[9; 8]);
        assert!(data_broadcast(1, 0, [0; 8]).ctrl.is_broadcast());
    }

    #[test]
    fn dma_constructor_sets_len() {
        let ctrl = DmaCtrl {
            channel: 2,
            region: 7,
            offset: 64,
            len: 0, // overwritten
        };
        let p = dma(1, 2, 0, ctrl, &[1, 2, 3]).unwrap();
        assert_eq!(p.dma_payload().unwrap(), &[1, 2, 3]);
        assert_eq!(p.words(), 4);
    }

    #[test]
    fn interrupt_roundtrip() {
        let ip = InterruptPayload {
            vector: 0x1234,
            cookie: 77,
            arg: 0xCAFE_F00D,
        };
        let p = interrupt(3, 4, ip);
        assert!(p.ctrl.flags.contains(Flags::URGENT));
        assert_eq!(parse_interrupt(&p), Some(ip));
        // Wrong type parses to None.
        assert_eq!(parse_interrupt(&data(1, 2, 0, [0; 8])), None);
    }

    #[test]
    fn atomic_request_roundtrip() {
        for op in [
            AtomicOp::TestAndSet,
            AtomicOp::Clear,
            AtomicOp::FetchAdd,
            AtomicOp::Swap,
            AtomicOp::Read,
        ] {
            let req = AtomicRequest {
                op,
                region: 9,
                offset: 8 * 12345,
                operand: 0xFFFF_FFFE,
            };
            let p = atomic_request(1, 6, req);
            assert_eq!(parse_atomic_request(&p), Some(req));
        }
    }

    #[test]
    fn atomic_offset_range_24_bit_words() {
        // Largest representable offset: (2^24 - 1) * 8 bytes = 128 MB - 8.
        let req = AtomicRequest {
            op: AtomicOp::Read,
            region: 0,
            offset: ((1 << 24) - 1) * 8,
            operand: 0,
        };
        let p = atomic_request(0, 1, req);
        assert_eq!(parse_atomic_request(&p).unwrap().offset, req.offset);
    }

    #[test]
    fn atomic_response_roundtrip() {
        let p = atomic_response(6, 1, AtomicOp::TestAndSet, u64::MAX - 3);
        assert_eq!(
            parse_atomic_response(&p),
            Some((AtomicOp::TestAndSet, u64::MAX - 3))
        );
        // A request does not parse as a response.
        let req = atomic_request(
            1,
            6,
            AtomicRequest {
                op: AtomicOp::Read,
                region: 0,
                offset: 0,
                operand: 0,
            },
        );
        assert_eq!(parse_atomic_response(&req), None);
        assert_eq!(parse_atomic_request(&p), None);
    }

    #[test]
    fn rostering_is_urgent_broadcast() {
        let p = rostering(4, 2, [1; 8]);
        assert!(p.ctrl.is_broadcast());
        assert!(p.ctrl.flags.contains(Flags::URGENT));
        assert_eq!(p.ctrl.tag, 2);
    }

    #[test]
    fn ops_parse_from_tags() {
        assert_eq!(AtomicOp::from_tag(0x3), Some(AtomicOp::FetchAdd));
        assert_eq!(AtomicOp::from_tag(0x9), None);
        assert_eq!(DiagOp::from_tag(0x2), Some(DiagOp::CrcAudit));
        assert_eq!(DiagOp::from_tag(0x0), None);
    }

    #[test]
    fn diagnostic_constructor() {
        let p = diagnostic(1, 2, DiagOp::Echo, [5; 8]);
        assert_eq!(p.ctrl.ptype, PacketType::Diagnostic);
        assert_eq!(DiagOp::from_tag(p.ctrl.tag), Some(DiagOp::Echo));
    }
}
