//! The log-linear [`Histogram`].
//!
//! It started life in `ampnet-sim::stats` and was re-homed here so
//! every crate (including ones below the simulator in the dependency
//! graph) can record into a [`Telemetry`](crate::Telemetry) registry
//! without a cycle. `ampnet-sim` re-exports it, so existing
//! `ampnet_sim::Histogram` call sites are unaffected.
//!
//! A *registered* histogram keeps these same fields as atomic cells
//! (`cells.rs`), bucketed by the same [`Histogram::index_of`]; a
//! snapshot loads the cells back into a plain [`Histogram`], so both
//! forms share one quantile and merge implementation.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

/// Log-linear histogram of `u64` samples (typically nanoseconds).
///
/// Buckets: 64 powers-of-two decades, each split into 16 linear
/// sub-buckets, giving ≤ 6.25 % relative error per recorded value.
/// All bucket storage is allocated once in [`Histogram::new`];
/// [`Histogram::record`] is allocation-free.
///
/// ```
/// use ampnet_telemetry::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [100u64, 200, 400, 800] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.min(), 100);
/// assert!(h.p99() <= h.max());
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const SUB: usize = 16;
const SUB_BITS: u32 = 4;
/// Buckets in every histogram.
pub(crate) const BUCKETS: usize = 64 * SUB;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The histogram cells a snapshot loaded (`min` is `u64::MAX` when
    /// `count` is 0).
    pub(crate) fn from_parts(buckets: Vec<u64>, count: u64, sum: u128, min: u64, max: u64) -> Self {
        debug_assert_eq!(buckets.len(), BUCKETS);
        Histogram { buckets, count, sum, min, max }
    }

    /// Bucket of `value`.
    #[inline]
    pub(crate) fn index_of(value: u64) -> usize {
        if value < SUB as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let decade = msb - SUB_BITS + 1;
        let sub = (value >> (decade - 1)) as usize - SUB;
        (decade as usize) * SUB + sub
    }

    /// Lower bound of the bucket at `idx`.
    fn bucket_low(idx: usize) -> u64 {
        let decade = idx / SUB;
        let sub = idx % SUB;
        if decade == 0 {
            sub as u64
        } else {
            ((SUB + sub) as u64) << (decade - 1)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let idx = Self::index_of(value);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean of recorded samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in [0, 1]; returns the lower bound of the
    /// containing bucket (a ≤ 6.25 % under-estimate at worst).
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_low(idx).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_exact_small_values() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert!((h.mean() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_bucket_error_bound() {
        let mut h = Histogram::new();
        let v = 1_000_000u64;
        h.record(v);
        let q = h.quantile(0.5);
        assert!(q <= v);
        assert!(
            (v - q) as f64 / v as f64 <= 0.0625 + 1e-9,
            "quantile {q} too far below {v}"
        );
    }

    #[test]
    fn histogram_quantiles_ordered() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 37);
        }
        let p50 = h.quantile(0.5);
        let p90 = h.quantile(0.9);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p99 <= h.max());
        assert!(h.quantile(0.0) >= h.min());
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn histogram_merge_matches_combined() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for i in 0..500u64 {
            a.record(i * 3 + 1);
            all.record(i * 3 + 1);
        }
        for i in 0..500u64 {
            b.record(i * 7 + 2);
            all.record(i * 7 + 2);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        assert_eq!(a.p50(), all.p50());
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
