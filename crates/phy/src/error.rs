//! Injectable bit-error bursts.
//!
//! Chaos testing needs a way to model a fiber segment going marginal —
//! a burst of bit errors on the serial stream, as opposed to a clean
//! loss of light. [`ErrorBurst`] is a deterministic generator of bit
//! flips: seeded once, it dispenses a bounded number of single-bit
//! corruptions, each at a pseudo-random position. On real AmpNet
//! hardware such errors surface as 8b/10b code violations or CRC
//! failures; the receiving NIU treats a sustained burst exactly like a
//! carrier loss and triggers rostering (paper, slides 16–17). The
//! cluster layer reuses that path: a burst-corrupted frame is detected
//! (never silently accepted) and escalates to a link failure.
//!
//! The generator is self-contained (SplitMix64) so bursts replay
//! identically for a given seed regardless of what else the simulation
//! RNG was used for.

/// A bounded, deterministic stream of single-bit corruptions.
#[derive(Debug, Clone)]
pub struct ErrorBurst {
    state: u64,
    remaining: u32,
}

impl ErrorBurst {
    /// A burst of `n_errors` bit flips, replayable from `seed`.
    pub fn new(seed: u64, n_errors: u32) -> Self {
        ErrorBurst { state: seed ^ 0x9e37_79b9_7f4a_7c15, remaining: n_errors }
    }

    /// Bit flips not yet dispensed.
    pub fn remaining(&self) -> u32 {
        self.remaining
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Corrupt one bit of a 10-bit transmission group. Returns the
    /// corrupted group, or the group unchanged if the burst is spent.
    pub fn corrupt_group(&mut self, group: u16) -> u16 {
        debug_assert!(group < 1024);
        if self.remaining == 0 {
            return group;
        }
        self.remaining -= 1;
        let bit = (self.next() % 10) as u16;
        group ^ (1 << bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decoder, Encoder, Symbol};

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut burst = ErrorBurst::new(seed, 16);
            let flips: Vec<u16> = (0..16).map(|_| burst.corrupt_group(0x155)).collect();
            assert_eq!(burst.remaining(), 0);
            flips
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn exhausted_burst_is_inert() {
        let mut burst = ErrorBurst::new(1, 1);
        assert_ne!(burst.corrupt_group(0x155), 0x155);
        assert_eq!(burst.corrupt_group(0x155), 0x155);
        assert_eq!(burst.remaining(), 0);
    }

    #[test]
    fn corrupted_group_never_silently_decodes_same_byte() {
        // A single-bit flip in a 10-bit group either breaks decode
        // (code violation / disparity error) or yields a different
        // byte; it is never silently the original data.
        for seed in 0..100u64 {
            let mut enc = Encoder::new();
            let byte = (seed as u8).wrapping_mul(37).wrapping_add(11);
            let group = enc.encode(Symbol::Data(byte)).unwrap();
            let mut burst = ErrorBurst::new(seed, 1);
            let bad = burst.corrupt_group(group);
            assert_ne!(bad, group);
            let mut dec = Decoder::new();
            match dec.decode(bad) {
                Err(_) => {}
                Ok(sym) => assert_ne!(sym, Symbol::Data(byte), "seed {seed}"),
            }
        }
    }
}
