//! Deterministic random numbers for simulations.
//!
//! Every stochastic choice in an AmpNet simulation draws from a
//! [`SimRng`], a ChaCha8 stream seeded from a user seed plus a stream
//! label. Distinct labels give statistically independent streams, so
//! adding randomness to one subsystem never perturbs another — a
//! standard variance-reduction discipline for discrete-event models.

/// The ChaCha constant "expand 32-byte k".
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// A labelled, reproducible random stream: the ChaCha8 keystream
/// (Bernstein 2008) under a 256-bit key, with a zero nonce and a 64-bit
/// block counter, read as little-endian 32-bit words.
#[derive(Debug, Clone)]
pub struct SimRng {
    /// The stream's key, which is also its identity for [`SimRng::derive`].
    key: [u32; 8],
    /// Counter of the next block to generate.
    counter: u64,
    /// The current keystream block.
    buf: [u32; 16],
    /// Next unread word of `buf`; 16 means the block is used up.
    idx: usize,
}

impl SimRng {
    /// Create the root stream for `seed`.
    ///
    /// The seed is expanded to a key with a PCG32 stream, as
    /// `rand_core`'s `SeedableRng::seed_from_u64` does.
    pub fn new(seed: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut state = seed;
        let mut key = [0u32; 8];
        for k in &mut key {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            *k = xorshifted.rotate_right((state >> 59) as u32);
        }
        Self::from_key(key)
    }

    fn from_key(key: [u32; 8]) -> Self {
        SimRng {
            key,
            counter: 0,
            buf: [0; 16],
            idx: 16,
        }
    }

    /// Derive an independent stream for a named subsystem.
    ///
    /// The derivation hashes the parent's seed identity together with
    /// the label, so `derive("ring")` and `derive("workload")` never
    /// share state, and nested derivations stay distinct. Deriving does
    /// not consume randomness from the parent: it depends only on the
    /// parent's seed, not on how far the parent stream has advanced.
    pub fn derive(&self, label: &str) -> SimRng {
        // FNV-1a over (parent key bytes || label), then four
        // counter-mixed words to fill the child key.
        let parent = self.key.iter().flat_map(|w| w.to_le_bytes());
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in parent.chain(label.bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let mut key = [0u32; 8];
        for (i, pair) in key.chunks_exact_mut(2).enumerate() {
            let w = splitmix64(h.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            pair[0] = w as u32;
            pair[1] = (w >> 32) as u32;
        }
        Self::from_key(key)
    }

    /// Generate the next keystream block: 8 rounds (4 double rounds).
    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        let input = state;
        for _ in 0..4 {
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (o, i) in state.iter_mut().zip(input) {
            *o = o.wrapping_add(i);
        }
        self.buf = state;
        self.idx = 0;
        self.counter = self.counter.wrapping_add(1);
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.idx >= 16 {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    /// Uniform `u64`.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }

    /// Uniform in `[0, span)`: a mask for a power of two, otherwise
    /// rejection sampling that accepts only the largest multiple of
    /// `span`.
    #[inline]
    fn uniform_below(&mut self, span: u64) -> u64 {
        if span.is_power_of_two() {
            return self.next_u64() & (span - 1);
        }
        let zone = (u64::MAX / span) * span;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % span;
            }
        }
    }

    /// Uniform in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.uniform_below(n)
    }

    /// Uniform in `[lo, hi)`. Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range({lo}, {hi}) is empty");
        lo + self.uniform_below(hi - lo)
    }

    /// Uniform in `[0, 1)`, from 53 uniform mantissa bits.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponentially distributed value with the given mean (for Poisson
    /// arrival processes).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = 1.0 - self.f64(); // avoid ln(0)
        -mean * u.ln()
    }
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// SplitMix64 finalizer, used to whiten derived seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn derived_streams_are_independent_of_parent_use() {
        let root = SimRng::new(99);
        let mut d1 = root.derive("ring");
        // Using the root must not change what derive produces.
        let mut root2 = SimRng::new(99);
        root2.next_u64();
        let mut d2 = root2.derive("ring");
        for _ in 0..32 {
            assert_eq!(d1.next_u64(), d2.next_u64());
        }
    }

    #[test]
    fn derived_labels_differ() {
        let root = SimRng::new(5);
        let mut a = root.derive("alpha");
        let mut b = root.derive("beta");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn below_is_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(250.0)).sum();
        let mean = sum / n as f64;
        assert!(
            (mean - 250.0).abs() < 15.0,
            "sample mean {mean} too far from 250"
        );
    }

    /// Known answers, taken from the `rand_chacha` stand-in this
    /// generator replaced: per stream, the first eight words, then
    /// `below(7)`, `below(1 << 20)` (the power-of-two path),
    /// `range(5, 10)` and the bits of `f64()` and `exponential(250.0)`.
    #[test]
    fn stream_is_pinned() {
        #[rustfmt::skip]
        let cases: [(SimRng, [u64; 13]); 3] = [
            (SimRng::new(0), [
                0xb585f767a79a3b6c, 0x7746a55fbad8c037, 0xb2fb0d3281e2a6e6, 0x0f6760a48f9b887c,
                0xe10d666732024679, 0x8cae14cb947eb0bd, 0xd438539d6a2e923c, 0xef781c7dd2d368ba,
                4, 204_296, 5, 0x3fe8a8605e5d63c5, 0x4067339fc020b8ee,
            ]),
            (SimRng::new(20_030_422), [
                0x3de9327a54d74dba, 0xdfa4744417261d16, 0xfc142958a05ee0c4, 0x45ec6259b0a64309,
                0xffc25434f17f4bd6, 0xed4c84fee9208b4e, 0x216a790ec5eb7088, 0x8faf83d397b91196,
                4, 59_937, 7, 0x3fe8529ee56578a6, 0x407edabfe85f6f0a,
            ]),
            (SimRng::new(7).derive("ring"), [
                0x3e516c598a464236, 0xeed4c2557232086a, 0x2f1dfa49e64d508e, 0xbb1b1fcf07566e2e,
                0xee42833394b4bf4c, 0x9d10d8a5b30439a4, 0xddb5c8a008bd79ba, 0xd72672aa5893d74b,
                5, 332_563, 7, 0x3f93035443bdf940, 0x402023c58dd8e0b8,
            ]),
        ];
        for (mut r, want) in cases {
            let mut got: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
            got.extend([
                r.below(7),
                r.below(1 << 20),
                r.range(5, 10),
                r.f64().to_bits(),
                r.exponential(250.0).to_bits(),
            ]);
            assert_eq!(got, want);
        }
    }

    #[test]
    #[should_panic(expected = "range(")]
    fn empty_range_names_itself() {
        SimRng::new(1).range(10, 10);
    }

    #[test]
    fn output_is_well_distributed() {
        // Cheap sanity: bit balance over 8k words within 1%.
        let mut r = SimRng::new(123);
        let mut ones = 0u64;
        let n = 8192;
        for _ in 0..n {
            ones += r.next_u64().count_ones() as u64;
        }
        let frac = ones as f64 / (n as f64 * 64.0);
        assert!((frac - 0.5).abs() < 0.01, "bit fraction {frac}");
    }
}
