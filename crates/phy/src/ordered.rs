//! AmpNet ordered sets — framing words built from K28.5.
//!
//! Slide 5/6 frames every MicroPacket between an `SOF` and `EOF`
//! column. Following Fibre Channel practice, each ordered set is one
//! transmission word (4 code groups) beginning with the comma character
//! K28.5, so receivers can acquire word alignment from any idle or
//! inter-packet gap.

use crate::enc8b10b::{Decoder, Encoder, Symbol, K28_5};

/// The AmpNet ordered sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderedSet {
    /// Idle fill word; transmitted whenever a node has nothing to
    /// insert. Also the carrier for loss-of-light detection: a port
    /// that stops seeing idles has lost its upstream neighbour.
    Idle,
    /// Start of a fixed-format MicroPacket (3 payload words follow).
    SofFixed,
    /// Start of a variable-format (DMA) MicroPacket.
    SofVariable,
    /// Normal end of frame.
    Eof,
    /// End of frame, aborted: receiver must discard the packet.
    EofAbort,
}

impl OrderedSet {
    /// All ordered sets, for table-driven tests.
    pub const ALL: [OrderedSet; 5] = [
        OrderedSet::Idle,
        OrderedSet::SofFixed,
        OrderedSet::SofVariable,
        OrderedSet::Eof,
        OrderedSet::EofAbort,
    ];

    /// The three data octets following K28.5 that identify the set.
    /// (Values chosen in FC style: a class byte repeated, then a
    /// discriminator.)
    pub fn identifier(self) -> [u8; 3] {
        match self {
            OrderedSet::Idle => [0x95, 0xB5, 0xB5],
            OrderedSet::SofFixed => [0x35, 0x35, 0x35],
            OrderedSet::SofVariable => [0x35, 0x36, 0x36],
            OrderedSet::Eof => [0x95, 0x75, 0x75],
            OrderedSet::EofAbort => [0x95, 0x7A, 0x7A],
        }
    }

    /// Parse an identifier triple back into an ordered set.
    fn from_identifier(id: [u8; 3]) -> Option<OrderedSet> {
        OrderedSet::ALL.into_iter().find(|os| os.identifier() == id)
    }

    /// Encode this ordered set as four 10-bit code groups.
    #[expect(clippy::expect_used, reason = "K28.5 is a valid control symbol by definition")]
    pub fn encode(self, enc: &mut Encoder) -> [u16; 4] {
        let id = self.identifier();
        [
            enc.encode(Symbol::Ctrl(K28_5)).expect("K28.5 is valid"),
            enc.encode_data(id[0]),
            enc.encode_data(id[1]),
            enc.encode_data(id[2]),
        ]
    }

    /// Decode four code groups into an ordered set. Returns `None` for
    /// coding errors or unknown identifiers.
    pub fn decode(groups: [u16; 4], dec: &mut Decoder) -> Option<OrderedSet> {
        let first = dec.decode(groups[0]).ok()?;
        if first != Symbol::Ctrl(K28_5) {
            return None;
        }
        let mut id = [0u8; 3];
        for (i, &g) in groups[1..].iter().enumerate() {
            match dec.decode(g).ok()? {
                Symbol::Data(b) => id[i] = b,
                Symbol::Ctrl(_) => return None,
            }
        }
        OrderedSet::from_identifier(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifiers_distinct() {
        for (i, a) in OrderedSet::ALL.iter().enumerate() {
            for b in &OrderedSet::ALL[i + 1..] {
                assert_ne!(a.identifier(), b.identifier(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn roundtrip_all_sets() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        for os in OrderedSet::ALL {
            let groups = os.encode(&mut enc);
            assert_eq!(OrderedSet::decode(groups, &mut dec), Some(os));
        }
    }

    #[test]
    fn from_identifier_rejects_unknown() {
        assert_eq!(OrderedSet::from_identifier([0, 0, 0]), None);
    }

    #[test]
    fn decode_rejects_data_first_group() {
        let mut enc = Encoder::new();
        let g0 = enc.encode(Symbol::Data(0x42)).unwrap();
        let id = OrderedSet::Idle.identifier();
        let g1 = enc.encode(Symbol::Data(id[0])).unwrap();
        let g2 = enc.encode(Symbol::Data(id[1])).unwrap();
        let g3 = enc.encode(Symbol::Data(id[2])).unwrap();
        let mut dec = Decoder::new();
        assert_eq!(OrderedSet::decode([g0, g1, g2, g3], &mut dec), None);
    }
}
