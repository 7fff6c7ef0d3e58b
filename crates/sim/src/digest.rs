//! FNV-64 folding — the workspace's shared fingerprint primitive.
//!
//! One hash, three users: the milestone-trace replay digest (rendered
//! from `ampnet-core`'s observation journal), the chaos engine's run
//! fingerprints, and `ampnet-check`'s explicit-state dedup. Keeping
//! them on the same function means a state hash printed by the model
//! checker can be compared against a trace digest dump without a
//! translation table.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

/// Incremental FNV-1a (64-bit) hasher.
///
/// ```
/// use ampnet_sim::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.fold(b"explore");
/// h.fold_u64(7);
/// assert_eq!(h.finish(), Fnv64::new().fold(b"explore").fold_u64(7).finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Resume folding from a previously obtained digest.
    pub fn from_state(state: u64) -> Self {
        Fnv64 { state }
    }

    /// Fold raw bytes.
    pub fn fold(&mut self, bytes: &[u8]) -> &mut Self {
        for b in bytes {
            self.state ^= *b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Fold one `u64` (little-endian).
    pub fn fold_u64(&mut self, v: u64) -> &mut Self {
        self.fold(&v.to_le_bytes())
    }

    /// Fold one byte.
    pub fn fold_u8(&mut self, v: u8) -> &mut Self {
        self.fold(&[v])
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-64 of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    Fnv64::new().fold(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Classic FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut h = Fnv64::new();
        h.fold(b"foo").fold(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }

    #[test]
    fn resume_from_state() {
        let first = Fnv64::new().fold(b"foo").finish();
        let resumed = Fnv64::from_state(first).fold(b"bar").finish();
        assert_eq!(resumed, fnv64(b"foobar"));
    }
}
