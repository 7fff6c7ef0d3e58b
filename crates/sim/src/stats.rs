//! Measurement primitives shared by every experiment.
//!
//! The harness reports latency distributions (rostering time, failover
//! time, semaphore acquire latency), throughput counters and fairness
//! indices. The core scalar instruments — [`Counter`] and the
//! log-linear [`Histogram`] — are re-homed in `ampnet-telemetry` so
//! the whole stack can record into one `Telemetry` registry; they are
//! re-exported here so existing call sites keep working.

use crate::time::SimDuration;

pub use ampnet_telemetry::{Counter, Histogram};

/// Jain's fairness index for a set of per-flow throughputs.
///
/// 1.0 means perfectly fair; 1/n means one flow got everything.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 { // lint: allow(nondeterminism): exact-zero guard against 0/0, not a tolerance compare
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sq)
}

/// Arithmetic mean of a slice, 0.0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation, 0.0 for fewer than two samples.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Throughput accumulator: bytes moved over a measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Throughput {
    /// Total bytes accumulated.
    pub bytes: u64,
}

impl Throughput {
    /// Accumulate bytes.
    #[inline]
    pub fn add(&mut self, bytes: u64) {
        self.bytes += bytes;
    }

    /// Megabytes per second over `window`.
    pub fn mbps(&self, window: SimDuration) -> f64 {
        if window.as_nanos() == 0 {
            return 0.0;
        }
        self.bytes as f64 / window.as_secs_f64() / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_extremes() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skew = jain_fairness(&[1.0, 0.0, 0.0, 0.0]);
        assert!((skew - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn mean_stddev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        let sd = stddev(&xs);
        assert!((sd - 2.138).abs() < 0.01, "stddev {sd}");
        assert_eq!(stddev(&[1.0]), 0.0);
    }

    #[test]
    fn throughput_mbps() {
        let mut t = Throughput::default();
        t.add(100_000_000);
        let w = SimDuration::from_secs(1);
        assert!((t.mbps(w) - 100.0).abs() < 1e-9);
        assert_eq!(t.mbps(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn rehomed_histogram_records_duration_nanos() {
        // `Histogram` lives in ampnet-telemetry now; durations are
        // recorded as `d.as_nanos()` at the call site.
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(1).as_nanos());
        assert!(h.min() <= 1000 && h.max() >= 1000);
    }
}
