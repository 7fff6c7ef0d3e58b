//! CRC-32 (IEEE 802.3 polynomial), table-driven, slicing-by-8.
//!
//! MicroPackets carry a CRC over their control and payload words so
//! that the diagnostics layer can certify a reconfigured network
//! (slide 18, "built-in diagnostics certify new configuration").
//! `MsgTx::send` and `MsgRx::on_packet` run it over every datagram, so
//! it folds eight bytes per step through eight compile-time tables and
//! finishes the tail a byte at a time.

const POLY: u32 = 0xEDB8_8320; // reflected 0x04C11DB7

/// `TABLES[0]` is the classic byte table; `TABLES[k][i]` is the CRC
/// contribution of byte `i` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Incremental CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh CRC state.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold bytes into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Final CRC value.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The definition: shift the reflected polynomial through one bit
    /// at a time.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
        }
        !c
    }

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 + 17) as u8 ^ (i >> 3) as u8).collect()
    }

    #[test]
    fn matches_the_bitwise_definition_at_every_length() {
        let data = pattern(300);
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "length {len}");
        }
        // Misaligned starts: the 8-byte steps must not assume alignment.
        for start in 1..8 {
            let tail = &data[start..start + 61];
            assert_eq!(crc32(tail), bitwise(tail), "start {start}");
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        // Every split point of a 64-byte buffer: both halves take the
        // 8-byte steps and the byte tail at every alignment.
        let data = pattern(64);
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn detects_every_single_bit_flip() {
        // What makes a line error that slips past 8b/10b still fail
        // the frame check sequence.
        let base = b"micropacket payload words".to_vec();
        let orig = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut m = base.clone();
                m[i] ^= 1 << bit;
                assert_ne!(crc32(&m), orig, "flip of bit {bit} in byte {i} undetected");
            }
        }
    }

    #[test]
    fn detects_transposition() {
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }
}
