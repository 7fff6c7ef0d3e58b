//! CRC-32 (IEEE 802.3 polynomial), table-driven.
//!
//! MicroPackets carry a CRC over their control and payload words so
//! that the diagnostics layer can certify a reconfigured network
//! (slide 18, "built-in diagnostics certify new configuration").

const POLY: u32 = 0xEDB8_8320; // reflected 0x04C11DB7

fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
            *entry = c;
        }
        t
    })
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
        let t = table();
        for &b in bytes {
            self.state = (self.state >> 8) ^ t[((self.state ^ b as u32) & 0xFF) as usize];
        }
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

    #[test]
    fn incremental_equals_oneshot() {
        let data = b"the network is also a computer";
        let mut c = Crc32::new();
        c.update(&data[..7]);
        c.update(&data[7..]);
        assert_eq!(c.finish(), crc32(data));
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
