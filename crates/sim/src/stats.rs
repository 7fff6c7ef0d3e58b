//! Measurement primitives shared by every experiment.
//!
//! The harness reports latency distributions (rostering time, failover
//! time, semaphore acquire latency) and fairness indices. The
//! log-linear [`Histogram`] is re-homed in `ampnet-telemetry` so the
//! whole stack can record into one `Telemetry` registry; it is
//! re-exported here so existing call sites keep working.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub use ampnet_telemetry::Histogram;

/// Jain's fairness index for a set of per-flow throughputs.
///
/// 1.0 means perfectly fair; 1/n means one flow got everything.
pub fn jain_fairness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn jain_extremes() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skew = jain_fairness(&[1.0, 0.0, 0.0, 0.0]);
        assert!((skew - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
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
