//! MicroPacket bodies and wire encoding (slides 5–6).
//!
//! Fixed format (3 words between SOF and EOF):
//!
//! ```text
//! Word 0: Control 0..3
//! Word 1: Payload 0..3
//! Word 2: Payload 4..7
//! ```
//!
//! Variable format (DMA; 4..=19 words):
//!
//! ```text
//! Word 0:      Control 0..3
//! Word 1..2:   DMA Ctrl 0..7
//! Word 3..18:  Payload 0..63  (only ceil(len/4) words transmitted)
//! ```
//!
//! On the wire each packet is framed by one SOF and one EOF ordered
//! set (one transmission word each), so a fixed MicroPacket occupies
//! 5 words = 20 line bytes and a full DMA MicroPacket 21 words = 84
//! line bytes.

use crate::control::{ControlError, ControlWord};
use crate::types::LengthClass;

/// Bytes in one transmission word.
pub const WORD: usize = 4;
/// Payload bytes in a fixed MicroPacket.
pub const FIXED_PAYLOAD: usize = 8;
/// Maximum payload bytes in a variable (DMA) MicroPacket.
pub const MAX_DMA_PAYLOAD: usize = 64;
/// Wire overhead per packet: SOF + control word + EOF.
pub const FRAME_OVERHEAD: usize = 3 * WORD;

/// DMA control words 1–2 (DMA Ctrl 0..7): which channel, which network
/// cache region, where in it, and how many payload bytes are valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DmaCtrl {
    /// One of the sixteen multiplexed DMA channels (0..=15, slide 11).
    pub channel: u8,
    /// Target network cache region id.
    pub region: u8,
    /// Byte offset within the region.
    pub offset: u32,
    /// Valid payload bytes (1..=64).
    pub len: u16,
}

impl DmaCtrl {
    /// Serialize to the 8 DMA control bytes.
    pub fn to_bytes(&self) -> [u8; 8] {
        let mut b = [0u8; 8];
        b[0] = self.channel;
        b[1] = self.region;
        b[2..6].copy_from_slice(&self.offset.to_be_bytes());
        b[6..8].copy_from_slice(&self.len.to_be_bytes());
        b
    }

    /// Parse from the 8 DMA control bytes.
    pub fn from_bytes([channel, region, o0, o1, o2, o3, l0, l1]: [u8; 8]) -> DmaCtrl {
        DmaCtrl {
            channel,
            region,
            offset: u32::from_be_bytes([o0, o1, o2, o3]),
            len: u16::from_be_bytes([l0, l1]),
        }
    }
}

/// The two big-endian transmission words of an 8-byte field (a fixed
/// payload, or the DMA control bytes).
fn be_words([a, b, c, d, e, f, g, h]: [u8; 8]) -> [u32; 2] {
    [u32::from_be_bytes([a, b, c, d]), u32::from_be_bytes([e, f, g, h])]
}

/// A MicroPacket body: fixed 8-byte payload or DMA block.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Body {
    /// Fixed-format payload (Payload 0..7).
    Fixed([u8; FIXED_PAYLOAD]),
    /// Variable-format DMA block.
    Variable {
        /// DMA control words.
        ctrl: DmaCtrl,
        /// Payload bytes; `ctrl.len` of these are valid.
        data: [u8; MAX_DMA_PAYLOAD],
    },
}

/// A complete MicroPacket.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MicroPacket {
    /// Word 0.
    pub ctrl: ControlWord,
    /// Words 1..N.
    pub body: Body,
}

/// Errors from packet encode/decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// Control word did not parse.
    Control(ControlError),
    /// The body class does not match the packet type (e.g. a DMA type
    /// with a fixed body).
    ClassMismatch,
    /// DMA payload length out of 1..=64.
    BadDmaLen(u16),
    /// Truncated or oversized byte buffer.
    BadSize(usize),
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::Control(e) => write!(f, "control word: {e}"),
            PacketError::ClassMismatch => write!(f, "body does not match packet type class"),
            PacketError::BadDmaLen(l) => write!(f, "DMA payload length {l} out of 1..=64"),
            PacketError::BadSize(n) => write!(f, "buffer of {n} bytes is not a MicroPacket"),
        }
    }
}

impl std::error::Error for PacketError {}

impl From<ControlError> for PacketError {
    fn from(e: ControlError) -> Self {
        PacketError::Control(e)
    }
}

/// Payload-bearing words (control word included) of a packet with
/// header `ctrl` and, on a DMA packet, DMA control `dma`, if the header
/// is well formed — the one rule of slides 4–6: a DMA packet and only a
/// DMA packet carries DMA control, and its length is 1..=64 bytes.
fn checked_words(ctrl: &ControlWord, dma: Option<&DmaCtrl>) -> Result<usize, PacketError> {
    match (ctrl.ptype.length_class(), dma) {
        (LengthClass::Fixed, None) => Ok(3),
        (LengthClass::Variable, Some(d)) if (1..=MAX_DMA_PAYLOAD).contains(&(d.len as usize)) => {
            Ok(3 + (d.len as usize).div_ceil(WORD))
        }
        (LengthClass::Variable, Some(d)) => Err(PacketError::BadDmaLen(d.len)),
        _ => Err(PacketError::ClassMismatch),
    }
}

impl MicroPacket {
    /// Construct, validating with [`MicroPacket::check`].
    pub fn new(ctrl: ControlWord, body: Body) -> Result<MicroPacket, PacketError> {
        let p = MicroPacket { ctrl, body };
        p.check()?;
        Ok(p)
    }

    /// Is the packet well formed? Its body class matches its type
    /// (only DMA is variable, slide 4) and a DMA length is 1..=64
    /// (slide 6). Every constructor and decoder of this crate checks
    /// it; a packet built as a struct literal, or changed after it was
    /// built, is checked where it enters a running network
    /// (`Cluster::send_cell`). Below that door — the frame arena, the
    /// MAC, the delivery plane — every packet is taken as well formed.
    pub fn check(&self) -> Result<(), PacketError> {
        checked_words(&self.ctrl, self.dma_ctrl()).map(drop)
    }

    /// The DMA control of a variable body.
    fn dma_ctrl(&self) -> Option<&DmaCtrl> {
        match &self.body {
            Body::Variable { ctrl, .. } => Some(ctrl),
            Body::Fixed(_) => None,
        }
    }

    /// The 8 payload bytes of a fixed body.
    pub fn fixed_payload(&self) -> Option<&[u8; FIXED_PAYLOAD]> {
        match &self.body {
            Body::Fixed(p) => Some(p),
            Body::Variable { .. } => None,
        }
    }

    /// DMA payload slice (only the valid bytes).
    pub fn dma_payload(&self) -> Option<&[u8]> {
        match &self.body {
            Body::Variable { ctrl, data } => Some(&data[..ctrl.len as usize]),
            Body::Fixed(_) => None,
        }
    }

    /// Number of payload-bearing transmission words (excluding SOF/EOF
    /// but including the control word): 3 for fixed, 3 + ceil(len/4)
    /// for variable.
    pub fn words(&self) -> usize {
        match &self.body {
            Body::Fixed(_) => 3,
            Body::Variable { ctrl, .. } => 3 + (ctrl.len as usize).div_ceil(WORD),
        }
    }

    /// Total line bytes including SOF and EOF ordered sets — the
    /// number that determines serialization time.
    pub fn wire_bytes(&self) -> usize {
        (self.words() + 2) * WORD
    }

    /// Application payload bytes carried.
    pub fn payload_bytes(&self) -> usize {
        match &self.body {
            Body::Fixed(_) => FIXED_PAYLOAD,
            Body::Variable { ctrl, .. } => ctrl.len as usize,
        }
    }

    /// Wire efficiency: payload bytes over total line bytes.
    pub fn efficiency(&self) -> f64 {
        self.payload_bytes() as f64 / self.wire_bytes() as f64
    }

    /// Serialize the packet words (without SOF/EOF framing, which the
    /// PHY adds) into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.ctrl.to_bytes());
        match &self.body {
            Body::Fixed(p) => out.extend_from_slice(p),
            Body::Variable { ctrl, data } => {
                out.extend_from_slice(&ctrl.to_bytes());
                let words = (ctrl.len as usize).div_ceil(WORD);
                out.extend_from_slice(&data[..words * WORD]);
            }
        }
    }

    /// Serialize the packet into transmission words without touching
    /// the heap. Writes [`MicroPacket::words`] words into the front of
    /// `out` and returns how many; the slice is typically a
    /// [`FrameArena`](crate::FrameArena) slot.
    pub fn encode_into(&self, out: &mut [u32]) -> Result<usize, PacketError> {
        let n = self.words();
        if out.len() < n {
            return Err(PacketError::BadSize(out.len() * WORD));
        }
        out[0] = u32::from_be_bytes(self.ctrl.to_bytes());
        match &self.body {
            Body::Fixed(p) => [out[1], out[2]] = be_words(*p),
            Body::Variable { ctrl, data } => {
                [out[1], out[2]] = be_words(ctrl.to_bytes());
                for (w, chunk) in out[3..n].iter_mut().zip(data.chunks_exact(WORD)) {
                    *w = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                }
            }
        }
        Ok(n)
    }

    /// Parse serialized transmission words into a borrowing
    /// [`FrameView`] — no payload copy.
    pub fn decode_ref(words: &[u32]) -> Result<FrameView<'_>, PacketError> {
        FrameView::parse(words)
    }

    /// Parse packet words produced by [`MicroPacket::encode`].
    pub fn decode(bytes: &[u8]) -> Result<MicroPacket, PacketError> {
        let bad_size = Err(PacketError::BadSize(bytes.len()));
        if !bytes.len().is_multiple_of(WORD) {
            return bad_size;
        }
        // Every packet is at least the control word plus two more words.
        let Some((head, rest)) = bytes.split_first_chunk::<WORD>() else {
            return bad_size;
        };
        let Some((second, tail)) = rest.split_first_chunk::<8>() else {
            return bad_size;
        };
        let ctrl = ControlWord::from_bytes(*head)?;
        let dma = (ctrl.ptype.length_class() == LengthClass::Variable)
            .then(|| DmaCtrl::from_bytes(*second));
        if bytes.len() != checked_words(&ctrl, dma.as_ref())? * WORD {
            return bad_size;
        }
        let body = match dma {
            None => Body::Fixed(*second),
            Some(dma) => {
                let mut data = [0u8; MAX_DMA_PAYLOAD];
                data[..tail.len()].copy_from_slice(tail);
                Body::Variable { ctrl: dma, data }
            }
        };
        Ok(MicroPacket { ctrl, body })
    }
}

/// Largest MicroPacket in transmission words (control + 2 DMA control
/// + 16 payload words).
pub const MAX_FRAME_WORDS: usize = 19;

/// A borrowed, decoded view over serialized packet words.
///
/// Parsing validates the header exactly like [`MicroPacket::decode`]
/// but borrows the payload instead of copying it into fresh arrays.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    /// Word 0, decoded.
    pub ctrl: ControlWord,
    /// DMA control words for variable frames.
    pub dma: Option<DmaCtrl>,
    /// Payload words (2 for fixed frames, `ceil(len/4)` for DMA).
    payload: &'a [u32],
}

impl<'a> FrameView<'a> {
    /// Parse serialized words (as produced by
    /// [`MicroPacket::encode_into`]) without copying the payload.
    pub fn parse(words: &'a [u32]) -> Result<FrameView<'a>, PacketError> {
        let bad_size = PacketError::BadSize(words.len() * WORD);
        let &[head, w1, w2, ..] = words else {
            return Err(bad_size);
        };
        let ctrl = ControlWord::from_bytes(head.to_be_bytes())?;
        let dma = (ctrl.ptype.length_class() == LengthClass::Variable)
            .then(|| DmaCtrl::from_bytes(words_to_bytes(&[w1, w2])));
        if words.len() != checked_words(&ctrl, dma.as_ref())? {
            return Err(bad_size);
        }
        let payload = &words[if dma.is_some() { 3 } else { 1 }..];
        Ok(FrameView { ctrl, dma, payload })
    }

    /// Payload-bearing transmission words (control word included).
    pub fn words(&self) -> usize {
        1 + self.dma.is_some() as usize * 2 + self.payload.len()
    }

    /// Total line bytes including SOF/EOF framing.
    pub fn wire_bytes(&self) -> usize {
        (self.words() + 2) * WORD
    }

    /// Application payload bytes carried.
    pub fn payload_bytes(&self) -> usize {
        match self.dma {
            Some(d) => d.len as usize,
            None => FIXED_PAYLOAD,
        }
    }

    /// Materialize a [`MicroPacket`] — where a real NIU would DMA the
    /// received frame into host memory. [`FrameView::parse`] checked
    /// the header, so the packet is well formed.
    pub fn to_packet(&self) -> MicroPacket {
        let body = match self.dma {
            None => Body::Fixed(words_to_bytes(self.payload)),
            Some(dma) => Body::Variable {
                ctrl: dma,
                data: words_to_bytes(self.payload),
            },
        };
        MicroPacket {
            ctrl: self.ctrl,
            body,
        }
    }
}

/// The big-endian bytes of `words`, zero-filled to `N`.
fn words_to_bytes<const N: usize>(words: &[u32]) -> [u8; N] {
    let mut out = [0u8; N];
    for (w, chunk) in words.iter().zip(out.chunks_exact_mut(WORD)) {
        chunk.copy_from_slice(&w.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::BROADCAST;
    use crate::types::PacketType;

    fn fixed(ptype: PacketType) -> MicroPacket {
        MicroPacket::new(
            ControlWord::new(ptype, 1, 2, 7),
            Body::Fixed([1, 2, 3, 4, 5, 6, 7, 8]),
        )
        .unwrap()
    }

    /// The byte-level reference encoding the word codec must match.
    fn encoded(p: &MicroPacket) -> Vec<u8> {
        let mut bytes = Vec::new();
        p.encode(&mut bytes);
        bytes
    }

    #[test]
    fn fixed_sizes_match_slide_5() {
        let p = fixed(PacketType::Data);
        assert_eq!(p.words(), 3, "3 words: control + 2 payload");
        assert_eq!(p.wire_bytes(), 20, "SOF + 3 words + EOF");
        assert_eq!(p.payload_bytes(), 8);
        assert!((p.efficiency() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn variable_sizes_match_slide_6() {
        let dma = DmaCtrl {
            channel: 3,
            region: 1,
            offset: 4096,
            len: 64,
        };
        let p = MicroPacket::new(
            ControlWord::new(PacketType::Dma, 1, BROADCAST, 0),
            Body::Variable {
                ctrl: dma,
                data: [0xAB; 64],
            },
        )
        .unwrap();
        assert_eq!(p.words(), 19, "control + 2 DMA ctrl + 16 payload");
        assert_eq!(p.wire_bytes(), 84);
        assert_eq!(p.payload_bytes(), 64);
        assert!(p.efficiency() > 0.75);
    }

    #[test]
    fn variable_partial_payload_rounds_to_words() {
        for (len, words) in [(1u16, 4usize), (4, 4), (5, 5), (63, 19), (64, 19)] {
            let p = MicroPacket::new(
                ControlWord::new(PacketType::Dma, 1, 2, 0),
                Body::Variable {
                    ctrl: DmaCtrl {
                        channel: 0,
                        region: 0,
                        offset: 0,
                        len,
                    },
                    data: [0; 64],
                },
            )
            .unwrap();
            assert_eq!(p.words(), words, "len {len}");
        }
    }

    #[test]
    fn class_mismatch_rejected() {
        let r = MicroPacket::new(
            ControlWord::new(PacketType::Dma, 1, 2, 0),
            Body::Fixed([0; 8]),
        );
        assert_eq!(r.unwrap_err(), PacketError::ClassMismatch);
        let r = MicroPacket::new(
            ControlWord::new(PacketType::Data, 1, 2, 0),
            Body::Variable {
                ctrl: DmaCtrl {
                    channel: 0,
                    region: 0,
                    offset: 0,
                    len: 8,
                },
                data: [0; 64],
            },
        );
        assert_eq!(r.unwrap_err(), PacketError::ClassMismatch);
    }

    #[test]
    fn dma_len_bounds() {
        for len in [0u16, 65, 1000] {
            let r = MicroPacket::new(
                ControlWord::new(PacketType::Dma, 1, 2, 0),
                Body::Variable {
                    ctrl: DmaCtrl {
                        channel: 0,
                        region: 0,
                        offset: 0,
                        len,
                    },
                    data: [0; 64],
                },
            );
            assert_eq!(r.unwrap_err(), PacketError::BadDmaLen(len));
        }
    }

    #[test]
    fn encode_decode_roundtrip_fixed() {
        for t in [
            PacketType::Rostering,
            PacketType::Data,
            PacketType::Interrupt,
            PacketType::Diagnostic,
            PacketType::D64Atomic,
        ] {
            let p = fixed(t);
            let bytes = encoded(&p);
            assert_eq!(bytes.len(), 12);
            assert_eq!(MicroPacket::decode(&bytes).unwrap(), p);
        }
    }

    #[test]
    fn encode_into_matches_encode() {
        let mut data = [0u8; 64];
        for (i, b) in data.iter_mut().enumerate() {
            *b = i as u8;
        }
        let packets = [1u16, 7, 32, 64]
            .map(|len| {
                MicroPacket::new(
                    ControlWord::new(PacketType::Dma, 9, 4, 2),
                    Body::Variable {
                        ctrl: DmaCtrl {
                            channel: 15,
                            region: 200,
                            offset: 0xDEAD_BEEF,
                            len,
                        },
                        data,
                    },
                )
                .unwrap()
            })
            .into_iter()
            .chain([fixed(PacketType::Data)]);
        for p in packets {
            let mut words = [0u32; 19];
            let n = p.encode_into(&mut words).unwrap();
            assert_eq!(n, p.words());
            let bytes = encoded(&p);
            let flat: Vec<u8> = words[..n]
                .iter()
                .flat_map(|w| w.to_be_bytes())
                .collect();
            assert_eq!(flat, bytes, "word encoding matches byte encoding");
            // And the borrowing decode path sees the same wire content
            // (payload beyond ctrl.len is not transmitted).
            let back = MicroPacket::decode_ref(&words[..n]).unwrap().to_packet();
            assert_eq!(back.ctrl, p.ctrl);
            assert_eq!(back.dma_payload(), p.dma_payload());
        }
        // Undersized buffers are rejected, not truncated.
        let p = fixed(PacketType::Data);
        assert_eq!(
            p.encode_into(&mut [0u32; 2]),
            Err(PacketError::BadSize(8))
        );
    }

    #[test]
    fn encode_decode_roundtrip_variable() {
        let mut data = [0u8; 64];
        for (i, b) in data.iter_mut().enumerate() {
            *b = i as u8;
        }
        for len in [1u16, 7, 32, 64] {
            let p = MicroPacket::new(
                ControlWord::new(PacketType::Dma, 9, 4, 2),
                Body::Variable {
                    ctrl: DmaCtrl {
                        channel: 15,
                        region: 200,
                        offset: 0xDEAD_BEEF,
                        len,
                    },
                    data,
                },
            )
            .unwrap();
            let bytes = encoded(&p);
            let back = MicroPacket::decode(&bytes).unwrap();
            assert_eq!(back.ctrl, p.ctrl);
            assert_eq!(back.dma_payload().unwrap(), &data[..len as usize]);
        }
    }

    #[test]
    fn decode_rejects_bad_sizes() {
        assert!(matches!(
            MicroPacket::decode(&[]),
            Err(PacketError::BadSize(0))
        ));
        assert!(matches!(
            MicroPacket::decode(&[0; 13]),
            Err(PacketError::BadSize(13))
        ));
        // Fixed packet with trailing words.
        let mut bytes = encoded(&fixed(PacketType::Data));
        bytes.extend_from_slice(&[0; 4]);
        assert!(matches!(
            MicroPacket::decode(&bytes),
            Err(PacketError::BadSize(16))
        ));
    }

    #[test]
    fn view_parse_rejects_garbage() {
        assert!(FrameView::parse(&[]).is_err());
        assert!(FrameView::parse(&[0xFFFF_FFFF, 0, 0]).is_err(), "bad control");
    }

    #[test]
    fn dma_ctrl_roundtrip() {
        let d = DmaCtrl {
            channel: 7,
            region: 42,
            offset: 123_456,
            len: 33,
        };
        assert_eq!(DmaCtrl::from_bytes(d.to_bytes()), d);
    }

    #[test]
    fn fixed_payload_accessor() {
        let p = fixed(PacketType::Data);
        assert_eq!(p.fixed_payload(), Some(&[1, 2, 3, 4, 5, 6, 7, 8]));
        assert!(p.dma_payload().is_none());
    }
}
