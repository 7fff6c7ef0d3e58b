//! Deterministic random numbers for simulations.
//!
//! Every stochastic choice in an AmpNet simulation draws from a
//! [`SimRng`], a ChaCha8 stream seeded from a user seed plus a stream
//! label. Distinct labels give statistically independent streams, so
//! adding randomness to one subsystem never perturbs another — a
//! standard variance-reduction discipline for discrete-event models.

use rand::Rng;
use rand::RngCore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A labelled, reproducible random stream.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8Rng,
}

impl SimRng {
    /// Create the root stream for `seed`.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
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
        let parent = self.inner.get_seed();
        // FNV-1a over (parent seed || label), then four counter-mixed
        // words to fill the child seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in parent.iter().copied().chain(label.bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let mut seed_bytes = [0u8; 32];
        for (i, chunk) in seed_bytes.chunks_exact_mut(8).enumerate() {
            let w = splitmix64(h.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        SimRng {
            inner: ChaCha8Rng::from_seed(seed_bytes),
        }
    }

    /// Uniform `u64`.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.inner.random_range(0..n)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.random_range(lo..hi)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        self.inner.random_range(0.0..1.0)
    }

    /// Exponentially distributed value with the given mean (for Poisson
    /// arrival processes).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = 1.0 - self.f64(); // avoid ln(0)
        -mean * u.ln()
    }
}

/// SplitMix64 finalizer, used to whiten derived seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
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
}
