//! Property tests for the 8b/10b codec and framing.

use ampnet_phy::{
    crc32, cumulative_disparity, max_run_length, CodeError, Decoder, Disparity, Encoder,
    OrderedSet, Symbol, VALID_K,
};
use proptest::prelude::*;

/// An encoder at running disparity `rd`: RD− is the initial state, and
/// the first data byte whose code group is unbalanced moves it to RD+.
fn encoder_at(rd: Disparity) -> Encoder {
    (0..=255u8)
        .map(|b| {
            let mut enc = Encoder::new();
            if rd == Disparity::Positive {
                enc.encode_data(b);
            }
            enc
        })
        .find(|enc| enc.disparity() == rd)
        .unwrap()
}

/// The 10-bit groups an encoder at `rd` emits, over every data octet
/// and every valid control character.
fn emitted_at(rd: Disparity) -> [bool; 1024] {
    let start = encoder_at(rd);
    let mut out = [false; 1024];
    for sym in (0..=255u8)
        .map(Symbol::Data)
        .chain(VALID_K.map(Symbol::Ctrl))
    {
        out[start.clone().encode(sym).unwrap() as usize] = true;
    }
    out
}

/// A code group as a hostile line delivers it: half the draws in the
/// 10-bit range, where the decode table is consulted, half any `u16`.
fn arb_group() -> impl Strategy<Value = u16> {
    prop_oneof![0u16..1024, any::<u16>()]
}

/// A decoder that an encoded data prefix, plus one unbalanced byte if
/// needed, has brought to `rd`.
fn decoder_at(prefix: &[u8], rd: Disparity) -> Decoder {
    let mut enc = Encoder::new();
    let mut dec = Decoder::new();
    for &b in prefix {
        dec.decode(enc.encode_data(b)).unwrap();
    }
    if dec.disparity() != rd {
        let g = (0..=255u8)
            .map(|b| enc.clone().encode_data(b))
            .find(|&g| g.count_ones() != 5)
            .unwrap();
        dec.decode(g).unwrap();
    }
    assert_eq!(dec.disparity(), rd);
    dec
}

proptest! {
    /// Any byte stream roundtrips through encode/decode.
    #[test]
    fn stream_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        for &b in &bytes {
            let g = enc.encode(Symbol::Data(b)).unwrap();
            prop_assert_eq!(dec.decode(g).unwrap(), Symbol::Data(b));
        }
        prop_assert_eq!(enc.disparity(), dec.disparity());
    }

    /// The cumulative group-disparity sum stays in {0, +2} for any
    /// input (running disparity is always ±1): the line is DC balanced.
    #[test]
    fn disparity_bounded(bytes in proptest::collection::vec(any::<u8>(), 1..512)) {
        let mut enc = Encoder::new();
        let mut groups = Vec::with_capacity(bytes.len());
        for &b in &bytes {
            groups.push(enc.encode(Symbol::Data(b)).unwrap());
        }
        let d = cumulative_disparity(&groups);
        prop_assert!((0..=2).contains(&d), "cumulative disparity {} for {} bytes", d, bytes.len());
    }

    /// Run length never exceeds 5 line bits for any data stream mixed
    /// with ordered sets.
    #[test]
    fn run_length_bound(
        bytes in proptest::collection::vec(any::<u8>(), 1..256),
        idles in 0usize..8,
    ) {
        let mut enc = Encoder::new();
        let mut groups = vec![];
        for _ in 0..idles {
            groups.extend(OrderedSet::Idle.encode(&mut enc));
        }
        for &b in &bytes {
            groups.push(enc.encode(Symbol::Data(b)).unwrap());
        }
        for _ in 0..idles {
            groups.extend(OrderedSet::Eof.encode(&mut enc));
        }
        prop_assert!(max_run_length(&groups) <= 5);
    }

    /// Every emitted group is exactly 10 bits and decodes from either
    /// fresh decoder state when disparity matches.
    #[test]
    fn groups_are_10_bits(b in any::<u8>(), start_pos in any::<bool>()) {
        let rd = if start_pos { Disparity::Positive } else { Disparity::Negative };
        let mut enc = Encoder::new();
        if start_pos {
            // Walk the encoder to RD+ deterministically: D.00 flips RD.
            enc.encode(Symbol::Data(0x00)).unwrap();
        }
        prop_assume!(enc.disparity() == rd);
        let g = enc.encode(Symbol::Data(b)).unwrap();
        prop_assert!(g < 1024);
    }

    /// CRC-32 differs for any two distinct short strings (no trivial
    /// collisions in the small).
    #[test]
    fn crc_distinguishes_prefix_flips(
        bytes in proptest::collection::vec(any::<u8>(), 1..64),
        idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let i = idx.index(bytes.len());
        let mut flipped = bytes.clone();
        flipped[i] ^= 1 << bit;
        prop_assert_ne!(crc32(&bytes), crc32(&flipped));
    }

    /// Ordered sets survive an arbitrary preceding data stream (framing
    /// is self-synchronizing given group alignment).
    #[test]
    fn ordered_sets_after_traffic(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        which in 0usize..5,
    ) {
        let os = OrderedSet::ALL[which];
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        for &b in &bytes {
            let g = enc.encode(Symbol::Data(b)).unwrap();
            dec.decode(g).unwrap();
        }
        let groups = os.encode(&mut enc);
        prop_assert_eq!(OrderedSet::decode(groups, &mut dec), Some(os));
    }

    /// Decode is total over hostile groups from either starting
    /// disparity: every `u16` yields a symbol or a typed error, never a
    /// panic. `InvalidGroup` comes back exactly for groups outside the
    /// code table, `DisparityError` for table groups the current
    /// disparity cannot emit, and a symbol re-encodes to its group.
    #[test]
    fn decode_is_total_over_arbitrary_groups(
        prefix in proptest::collection::vec(any::<u8>(), 0..16),
        start_pos in any::<bool>(),
        groups in proptest::collection::vec(arb_group(), 1..64),
    ) {
        let rd = if start_pos { Disparity::Positive } else { Disparity::Negative };
        let mut dec = decoder_at(&prefix, rd);
        let neg = emitted_at(Disparity::Negative);
        let pos = emitted_at(Disparity::Positive);
        for g in groups {
            let before = dec.disparity();
            let in_table = g < 1024 && (neg[g as usize] || pos[g as usize]);
            let legal = g < 1024
                && match before {
                    Disparity::Negative => neg[g as usize],
                    Disparity::Positive => pos[g as usize],
                };
            match dec.decode(g) {
                Ok(sym) => {
                    prop_assert!(legal, "{:#x} decoded at {:?}", g, before);
                    prop_assert_eq!(encoder_at(before).encode(sym), Ok(g));
                }
                Err(CodeError::InvalidGroup(x)) => {
                    prop_assert_eq!(x, g);
                    prop_assert!(!in_table, "table group {:#x} called invalid", g);
                }
                Err(CodeError::DisparityError(x)) => {
                    prop_assert_eq!(x, g);
                    prop_assert!(in_table && !legal, "{:#x} at {:?}", g, before);
                }
                Err(e) => prop_assert!(false, "decode returned {:?}", e),
            }
        }
    }

    /// Ordered-set decode of four hostile groups returns `None` rather
    /// than panicking; anything it accepts is what the encoder emits
    /// from the same disparity.
    #[test]
    fn ordered_set_decode_rejects_garbage(
        prefix in proptest::collection::vec(any::<u8>(), 0..16),
        start_pos in any::<bool>(),
        g in (arb_group(), arb_group(), arb_group(), arb_group()),
    ) {
        let rd = if start_pos { Disparity::Positive } else { Disparity::Negative };
        let groups = [g.0, g.1, g.2, g.3];
        if let Some(os) = OrderedSet::decode(groups, &mut decoder_at(&prefix, rd)) {
            prop_assert_eq!(os.encode(&mut encoder_at(rd)), groups);
        }
    }
}
