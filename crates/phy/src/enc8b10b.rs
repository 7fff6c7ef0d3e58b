//! IBM 8b/10b line coding (FC-1), table-driven with running disparity.
//!
//! AmpNet rides on the Fibre Channel FC-0/FC-1 layers (slide 3). FC-1
//! is the classic Widmer–Franaszek 8b/10b code: each byte becomes a
//! 10-bit *code group* via a 5b/6b sub-block (low five bits, `EDCBA`)
//! and a 3b/4b sub-block (high three bits, `HGF`). Each sub-block has a
//! disparity-negative and a disparity-positive encoding; the encoder
//! picks the column that keeps the *running disparity* (RD) bounded,
//! which gives the line DC balance and guaranteed transition density.
//!
//! Code groups are stored as `u16` with transmission order
//! `abcdei fghj` from bit 9 down to bit 0 (bit 9 = `a`, first on the
//! wire).
//!
//! Control (K) code groups carry framing: AmpNet ordered sets (SOF/EOF/
//! IDLE, see [`crate::ordered`]) start with K28.5, the comma character.

/// Running disparity: the sign of the cumulative ones-minus-zeros
/// balance at a sub-block boundary. 8b/10b keeps it at exactly ±1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disparity {
    /// RD−: more zeros than ones seen so far.
    Negative,
    /// RD+: more ones than zeros seen so far.
    Positive,
}

/// A symbol presented to the encoder: an ordinary data octet or one of
/// the twelve valid control (K) characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Symbol {
    /// Data octet Dx.y.
    Data(u8),
    /// Control character Kx.y, by octet value (e.g. K28.5 = 0xBC).
    Ctrl(u8),
}

/// K28.5 — the comma character, start of every ordered set.
pub const K28_5: u8 = 0xBC;
/// K28.1 — alternate comma, used by AmpNet diagnostics.
pub const K28_1: u8 = 0x3C;
/// K27.7 — used in SOF ordered sets.
pub const K27_7: u8 = 0xFB;
/// K29.7 — used in EOF ordered sets.
pub const K29_7: u8 = 0xFD;
/// K30.7 — error propagation character.
pub const K30_7: u8 = 0xFE;
/// K23.7 — ARB/fill character.
pub const K23_7: u8 = 0xF7;

/// The twelve control characters defined by 8b/10b.
pub const VALID_K: [u8; 12] = [
    0x1C, 0x3C, 0x5C, 0x7C, 0x9C, 0xBC, 0xDC, 0xFC, // K28.0..K28.7
    0xF7, 0xFB, 0xFD, 0xFE, // K23.7 K27.7 K29.7 K30.7
];

/// Errors reported by the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeError {
    /// The 10-bit pattern is not a valid code group in either column.
    InvalidGroup(u16),
    /// The group is valid but illegal for the current running
    /// disparity (a single-bit line error usually shows up this way).
    DisparityError(u16),
    /// Attempted to encode an invalid K octet.
    InvalidControl(u8),
}

impl std::fmt::Display for CodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodeError::InvalidGroup(g) => write!(f, "invalid 10b code group {g:#05x}"),
            CodeError::DisparityError(g) => {
                write!(f, "running disparity violation at group {g:#05x}")
            }
            CodeError::InvalidControl(k) => write!(f, "invalid control octet {k:#04x}"),
        }
    }
}

impl std::error::Error for CodeError {}

// 5b/6b table: indexed by the low five bits (EDCBA). Column 0 is the
// encoding chosen when current RD is negative, column 1 when positive.
// Bits are `abcdei` with `a` as bit 5.
const FIVE_SIX: [[u8; 2]; 32] = [
    [0b100111, 0b011000], // D.00
    [0b011101, 0b100010], // D.01
    [0b101101, 0b010010], // D.02
    [0b110001, 0b110001], // D.03
    [0b110101, 0b001010], // D.04
    [0b101001, 0b101001], // D.05
    [0b011001, 0b011001], // D.06
    [0b111000, 0b000111], // D.07
    [0b111001, 0b000110], // D.08
    [0b100101, 0b100101], // D.09
    [0b010101, 0b010101], // D.10
    [0b110100, 0b110100], // D.11
    [0b001101, 0b001101], // D.12
    [0b101100, 0b101100], // D.13
    [0b011100, 0b011100], // D.14
    [0b010111, 0b101000], // D.15
    [0b011011, 0b100100], // D.16
    [0b100011, 0b100011], // D.17
    [0b010011, 0b010011], // D.18
    [0b110010, 0b110010], // D.19
    [0b001011, 0b001011], // D.20
    [0b101010, 0b101010], // D.21
    [0b011010, 0b011010], // D.22
    [0b111010, 0b000101], // D.23
    [0b110011, 0b001100], // D.24
    [0b100110, 0b100110], // D.25
    [0b010110, 0b010110], // D.26
    [0b110110, 0b001001], // D.27
    [0b001110, 0b001110], // D.28
    [0b101110, 0b010001], // D.29
    [0b011110, 0b100001], // D.30
    [0b101011, 0b010100], // D.31
];

// K.28 5b/6b encoding (the only x value with a distinct control
// encoding shared by K28.0..K28.7).
const K28_SIX: [u8; 2] = [0b001111, 0b110000];

// 3b/4b table for data: indexed by the high three bits (HGF). Bits are
// `fghj` with `f` as bit 3. D.x.P7 shown; A7 handled separately.
const THREE_FOUR: [[u8; 2]; 8] = [
    [0b1011, 0b0100], // D.x.0
    [0b1001, 0b1001], // D.x.1
    [0b0101, 0b0101], // D.x.2
    [0b1100, 0b0011], // D.x.3
    [0b1101, 0b0010], // D.x.4
    [0b1010, 0b1010], // D.x.5
    [0b0110, 0b0110], // D.x.6
    [0b1110, 0b0001], // D.x.P7
];

// Alternate A7 encoding, replacing P7 to avoid runs of five.
const A7: [u8; 2] = [0b0111, 0b1000];

// 3b/4b table for control characters.
const K_THREE_FOUR: [[u8; 2]; 8] = [
    [0b1011, 0b0100], // K.x.0
    [0b0110, 0b1001], // K.x.1
    [0b1010, 0b0101], // K.x.2
    [0b1100, 0b0011], // K.x.3
    [0b1101, 0b0010], // K.x.4
    [0b0101, 0b1010], // K.x.5
    [0b1001, 0b0110], // K.x.6
    [0b0111, 0b1000], // K.x.7
];

#[inline]
fn col(rd: Disparity) -> usize {
    match rd {
        Disparity::Negative => 0,
        Disparity::Positive => 1,
    }
}

#[inline]
fn block_disparity_update(rd: Disparity, ones: u32, bits: u32) -> Disparity {
    let zeros = bits - ones;
    match ones.cmp(&zeros) {
        std::cmp::Ordering::Greater => Disparity::Positive,
        std::cmp::Ordering::Less => Disparity::Negative,
        std::cmp::Ordering::Equal => {
            // Balanced blocks normally preserve RD. The two "alternate
            // balanced" 6b blocks (D.07: 111000/000111) and the 4b
            // blocks 1100/0011 are chosen per-column and flip nothing.
            rd
        }
    }
}

/// Whether to substitute the A7 alternate for a data P7 sub-block.
/// Per the standard: A7 is used when (RD− entering the 3b/4b block and
/// x ∈ {17, 18, 20}) or (RD+ and x ∈ {11, 13, 14}).
#[inline]
fn use_a7(x: u8, rd_after_six: Disparity) -> bool {
    match rd_after_six {
        Disparity::Negative => matches!(x, 17 | 18 | 20),
        Disparity::Positive => matches!(x, 11 | 13 | 14),
    }
}

/// Stateful 8b/10b encoder. Starts at RD−, per the standard.
#[derive(Debug, Clone)]
pub struct Encoder {
    rd: Disparity,
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Encoder {
    /// New encoder at initial running disparity RD−.
    pub fn new() -> Self {
        Encoder {
            rd: Disparity::Negative,
        }
    }

    /// Current running disparity.
    pub fn disparity(&self) -> Disparity {
        self.rd
    }

    /// Encode one data byte into a 10-bit code group. Total: every
    /// byte has a code group at either disparity, so there is no error
    /// path.
    pub fn encode_data(&mut self, byte: u8) -> u16 {
        let x = byte & 0x1F;
        let y = (byte >> 5) & 0x07;
        let six = FIVE_SIX[x as usize][col(self.rd)];
        let rd_mid = block_disparity_update(self.rd, (six as u32).count_ones(), 6);
        let four = if y == 7 && use_a7(x, rd_mid) {
            A7[col(rd_mid)]
        } else {
            THREE_FOUR[y as usize][col(rd_mid)]
        };
        self.rd = block_disparity_update(rd_mid, (four as u32).count_ones(), 4);
        ((six as u16) << 4) | four as u16
    }

    /// Encode one symbol into a 10-bit code group (`abcdeifghj`, bit 9
    /// first on the wire).
    pub fn encode(&mut self, sym: Symbol) -> Result<u16, CodeError> {
        let group = match sym {
            Symbol::Data(byte) => self.encode_data(byte),
            Symbol::Ctrl(byte) => {
                if !VALID_K.contains(&byte) {
                    return Err(CodeError::InvalidControl(byte));
                }
                let x = byte & 0x1F;
                let y = (byte >> 5) & 0x07;
                let six = if x == 28 {
                    K28_SIX[col(self.rd)]
                } else {
                    // K23/K27/K29/K30 share the data 5b/6b encodings.
                    FIVE_SIX[x as usize][col(self.rd)]
                };
                let rd_mid = block_disparity_update(self.rd, (six as u32).count_ones(), 6);
                // Control 3b/4b: K28.x uses the table column matching
                // the *entry* disparity of the 4b block; for K28 the 6b
                // block always flips RD, so index by rd_mid.
                let four = K_THREE_FOUR[y as usize][col(rd_mid)];
                self.rd = block_disparity_update(rd_mid, (four as u32).count_ones(), 4);
                ((six as u16) << 4) | four as u16
            }
        };
        Ok(group)
    }

    /// Encode a byte slice as data symbols.
    pub fn encode_bytes(&mut self, bytes: &[u8], out: &mut Vec<u16>) {
        out.reserve(bytes.len());
        for &b in bytes {
            out.push(self.encode_data(b));
        }
    }
}

/// Decode lookup entry: the symbol plus which RD columns may legally
/// emit this group.
#[derive(Debug, Clone, Copy)]
struct DecodeEntry {
    sym: Symbol,
    /// Bitmask: bit 0 = legal when entered at RD−, bit 1 = RD+.
    legal_rd: u8,
}

/// Stateful 8b/10b decoder with disparity checking.
#[derive(Debug, Clone)]
pub struct Decoder {
    rd: Disparity,
}

fn decode_table() -> &'static [Option<DecodeEntry>; 1024] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Box<[Option<DecodeEntry>; 1024]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table: Box<[Option<DecodeEntry>; 1024]> = Box::new([None; 1024]);
        let mut insert = |group: u16, sym: Symbol, rd_bit: u8| {
            let slot = &mut table[group as usize];
            match slot {
                None => {
                    *slot = Some(DecodeEntry {
                        sym,
                        legal_rd: rd_bit,
                    })
                }
                Some(e) => {
                    assert_eq!(
                        e.sym, sym,
                        "8b/10b decode collision: {group:#05x} maps to two symbols"
                    );
                    e.legal_rd |= rd_bit;
                }
            }
        };
        for rd in [Disparity::Negative, Disparity::Positive] {
            let rd_bit = match rd {
                Disparity::Negative => 1,
                Disparity::Positive => 2,
            };
            for b in 0..=255u8 {
                let mut enc = Encoder { rd };
                let g = enc.encode_data(b);
                insert(g, Symbol::Data(b), rd_bit);
            }
            for &k in &VALID_K {
                let mut enc = Encoder { rd };
                #[expect(clippy::unwrap_used, reason = "encode is total over the valid control symbols")]
                let g = enc.encode(Symbol::Ctrl(k)).unwrap();
                insert(g, Symbol::Ctrl(k), rd_bit);
            }
        }
        table
    })
}

impl Default for Decoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Decoder {
    /// New decoder at initial running disparity RD−.
    pub fn new() -> Self {
        Decoder {
            rd: Disparity::Negative,
        }
    }

    /// Current running disparity.
    pub fn disparity(&self) -> Disparity {
        self.rd
    }

    /// Decode one 10-bit code group, updating and checking running
    /// disparity.
    pub fn decode(&mut self, group: u16) -> Result<Symbol, CodeError> {
        if group >= 1024 {
            return Err(CodeError::InvalidGroup(group));
        }
        let entry = decode_table()[group as usize].ok_or(CodeError::InvalidGroup(group))?;
        let rd_bit = match self.rd {
            Disparity::Negative => 1,
            Disparity::Positive => 2,
        };
        // Advance RD from the actual bits regardless, mirroring
        // hardware behaviour (one error shouldn't cascade forever).
        let six_ones = (group >> 4).count_ones();
        let rd_mid = block_disparity_update(self.rd, six_ones, 6);
        let four_ones = (group & 0xF).count_ones();
        self.rd = block_disparity_update(rd_mid, four_ones, 4);
        if entry.legal_rd & rd_bit == 0 {
            return Err(CodeError::DisparityError(group));
        }
        Ok(entry.sym)
    }
}

/// Maximum run length of identical bits across a code-group sequence —
/// a line-coding quality metric (8b/10b guarantees ≤ 5).
pub fn max_run_length(groups: &[u16]) -> u32 {
    let mut best = 0u32;
    let mut run = 0u32;
    let mut last = 2u8; // neither 0 nor 1
    for &g in groups {
        for bit_idx in (0..10).rev() {
            let bit = ((g >> bit_idx) & 1) as u8;
            if bit == last {
                run += 1;
            } else {
                run = 1;
                last = bit;
            }
            best = best.max(run);
        }
    }
    best
}

/// Cumulative disparity (ones minus zeros) across a code-group
/// sequence. With the conventional RD(−1) start, 8b/10b keeps this
/// sum in {0, +2} at every group boundary (i.e. running disparity is
/// always ±1).
pub fn cumulative_disparity(groups: &[u16]) -> i32 {
    groups
        .iter()
        .map(|&g| 2 * (g & 0x3FF).count_ones() as i32 - 10)
        .sum()
}

#[cfg(test)]
#[expect(clippy::unusual_byte_groupings, reason = "groups mirror the 6b/4b sub-blocks")]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // D.00.0 from RD−: 100111 0100  (6b flips to RD+, then 0100)
        let mut e = Encoder::new();
        let g = e.encode(Symbol::Data(0x00)).unwrap();
        assert_eq!(g, 0b100111_0100, "D.00.0 RD- encoding");
        // K28.5 from RD−: 001111 1010
        let mut e = Encoder::new();
        let g = e.encode(Symbol::Ctrl(K28_5)).unwrap();
        assert_eq!(g, 0b001111_1010, "K28.5 RD- encoding");
        // K28.5 from RD+: 110000 0101
        let mut e = Encoder {
            rd: Disparity::Positive,
        };
        let g = e.encode(Symbol::Ctrl(K28_5)).unwrap();
        assert_eq!(g, 0b110000_0101, "K28.5 RD+ encoding");
    }

    #[test]
    fn roundtrip_all_bytes_both_disparities() {
        for rd in [Disparity::Negative, Disparity::Positive] {
            for b in 0..=255u8 {
                let mut e = Encoder { rd };
                let mut d = Decoder { rd };
                let g = e.encode(Symbol::Data(b)).unwrap();
                assert_eq!(d.decode(g).unwrap(), Symbol::Data(b), "byte {b:#04x}");
                assert_eq!(e.disparity(), d.disparity(), "RD tracks for {b:#04x}");
            }
        }
    }

    #[test]
    fn roundtrip_all_k_codes() {
        for rd in [Disparity::Negative, Disparity::Positive] {
            for &k in &VALID_K {
                let mut e = Encoder { rd };
                let mut d = Decoder { rd };
                let g = e.encode(Symbol::Ctrl(k)).unwrap();
                assert_eq!(d.decode(g).unwrap(), Symbol::Ctrl(k));
            }
        }
    }

    #[test]
    fn invalid_control_rejected() {
        let mut e = Encoder::new();
        assert_eq!(
            e.encode(Symbol::Ctrl(0x00)),
            Err(CodeError::InvalidControl(0x00))
        );
    }

    #[test]
    fn disparity_stays_bounded_over_stream() {
        let mut e = Encoder::new();
        let mut groups = vec![];
        // Pathological stream: all 0x00 (max disparity pressure).
        for _ in 0..1000 {
            groups.push(e.encode(Symbol::Data(0x00)).unwrap());
        }
        let d = cumulative_disparity(&groups);
        assert!((0..=2).contains(&d), "cumulative disparity {d} out of bounds");
    }

    #[test]
    fn run_length_bounded() {
        let mut e = Encoder::new();
        let mut groups = vec![];
        for b in 0..=255u8 {
            groups.push(e.encode(Symbol::Data(b)).unwrap());
        }
        for _ in 0..32 {
            groups.push(e.encode(Symbol::Ctrl(K28_5)).unwrap());
        }
        assert!(
            max_run_length(&groups) <= 5,
            "run length {} exceeds 8b/10b bound",
            max_run_length(&groups)
        );
    }

    #[test]
    fn single_bit_flip_detected_or_misdecodes_with_disparity_trace() {
        // Flipping any single bit of a valid group yields either an
        // invalid group, a disparity error now, or a disparity error
        // within a short window (8b/10b's error model).
        let mut e = Encoder::new();
        let stream: Vec<u8> = (0..32).map(|i| (i * 37) as u8).collect();
        let mut groups = vec![];
        for &b in &stream {
            groups.push(e.encode(Symbol::Data(b)).unwrap());
        }
        let mut detected = 0;
        let mut total = 0;
        for flip_at in 0..groups.len() {
            for bit in 0..10 {
                total += 1;
                let mut corrupted = groups.clone();
                corrupted[flip_at] ^= 1 << bit;
                let mut d = Decoder::new();
                let ok = corrupted.iter().all(|&g| d.decode(g).is_ok());
                if !ok {
                    detected += 1;
                }
            }
        }
        // The code cannot catch everything with one check, but the
        // overwhelming majority of single-bit errors must be caught.
        assert!(
            detected as f64 / total as f64 > 0.75,
            "only {detected}/{total} single-bit errors detected"
        );
    }

    #[test]
    fn encode_bytes_matches_individual() {
        let mut e1 = Encoder::new();
        let mut e2 = Encoder::new();
        let data = [1u8, 2, 3, 200, 255, 0, 17];
        let mut out = vec![];
        e1.encode_bytes(&data, &mut out);
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(out[i], e2.encode(Symbol::Data(b)).unwrap());
        }
    }

    #[test]
    fn comma_pattern_unique_to_k28() {
        // The singular comma bit pattern 0011111 / 1100000 (bits a..g)
        // appears only in K28.1/K28.5/K28.7 groups — the property that
        // makes word alignment possible. Scan all data groups.
        let is_comma = |g: u16| {
            let bits7 = (g >> 3) & 0x7F;
            bits7 == 0b0011111 || bits7 == 0b1100000
        };
        for rd in [Disparity::Negative, Disparity::Positive] {
            for b in 0..=255u8 {
                let mut e = Encoder { rd };
                let g = e.encode(Symbol::Data(b)).unwrap();
                assert!(!is_comma(g), "data byte {b:#04x} contains comma");
            }
        }
        let mut e = Encoder::new();
        let g = e.encode(Symbol::Ctrl(K28_5)).unwrap();
        assert!(is_comma(g), "K28.5 must contain the comma");
    }

    #[test]
    fn decoder_rejects_garbage() {
        let mut d = Decoder::new();
        // 0b1111111111 is not a valid group.
        assert!(matches!(
            d.decode(0x3FF),
            Err(CodeError::InvalidGroup(0x3FF))
        ));
        assert!(matches!(
            d.decode(2000),
            Err(CodeError::InvalidGroup(2000))
        ));
    }
}
