//! Order statistics the benchmark reports: medians, the p75 estimator
//! for calibrated pass scores, the quartile spread the acceptance rule
//! uses, and the tail-percentile rule ("the highest percentile with at
//! least ten samples beyond it").

/// Linear-interpolated quantile of an unsorted sample (`q` in 0..=1),
/// the same "inclusive" definition as NumPy's default. Empty → 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Upper quartile: the estimator for calibrated pass scores. A shared
/// host only ever *subtracts* speed, so the upper part of the score
/// distribution is the stable part; the maximum itself is an outlier
/// magnet, the p75 is not.
pub fn p75(values: &[f64]) -> f64 {
    quantile(values, 0.75)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the "exclusive" method: position `(n + 1) · k / 4`), so that
/// `--selfcheck` applies the very rule the acceptance driver applies.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |k: usize| {
        let pos = (n + 1) as f64 * k as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Inter-quartile range as a share of the median (0 when the median
/// is 0): the run-to-run spread the benchmark's bounds are sized by.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles_exclusive(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Which tail percentile a sample of `n` supports: p99 from 1000
/// samples up, otherwise the highest whole percentile that still has
/// at least ten samples beyond it (p90 for 100 samples, p50 for 20),
/// and the maximum's percentile is never claimed. Fewer than 20
/// samples support no tail at all → `None`.
pub fn tail_percentile(n: u64) -> Option<u32> {
    if n >= 1000 {
        return Some(99);
    }
    if n < 20 {
        return None;
    }
    // Largest p with n·(1 − p/100) ≥ 10.
    let p = (100.0 * (1.0 - 10.0 / n as f64)).floor() as u32;
    Some(p.clamp(50, 99))
}

/// Percentile of *interval-censored* samples (the grouped-data
/// percentile). Every latency source the benchmark can read from
/// outside is censored: a log-bucket histogram only says which bucket
/// a sample fell in, a poll-driven harvest only says in which tick an
/// operation completed. Reporting the bin's edge makes the metric a
/// step function that reads the same for most changes and then jumps
/// by a whole bin; assuming samples uniform inside their bin gives an
/// estimate that moves with the distribution.
///
/// `n` samples in rank order; `value_at(rank)` (1-based) returns the
/// censored reading of that sample and `bin(reading)` the `[lo, hi)`
/// interval the sample really lies in; bins must not overlap. Returns
/// the point where the cumulative count crosses `q · n`.
pub fn grouped_quantile(
    n: u64,
    value_at: impl Fn(u64) -> u64,
    bin: impl Fn(u64) -> (u64, u64),
    q: f64,
) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * n as f64;
    let rank = (target.ceil() as u64).clamp(1, n);
    let (lo, hi) = bin(value_at(rank));
    // Samples in bins below this one / up to and including it, by
    // binary search over the (monotone) rank → bin mapping.
    let count_where = |pred: &dyn Fn(u64) -> bool| {
        let (mut a, mut b) = (0u64, n); // pred holds for ranks 1..=a, fails above b
        while a < b {
            let mid = a + (b - a).div_ceil(2);
            if pred(bin(value_at(mid)).0) {
                a = mid;
            } else {
                b = mid - 1;
            }
        }
        a
    };
    let below = count_where(&|l| l < lo);
    let through = count_where(&|l| l <= lo);
    let inside = (through - below).max(1) as f64;
    lo as f64 + (hi - lo) as f64 * ((target - below as f64) / inside).clamp(0.0, 1.0)
}

/// Bin of a reading from `ampnet_telemetry::Histogram::quantile`: the
/// histogram splits every power of two into 16 linear sub-buckets and
/// reports a bucket's lower bound (clamped to the sample min/max).
pub fn log16_bin(v: u64) -> (u64, u64) {
    if v < 16 {
        return (v, v + 1);
    }
    let shift = (63 - v.leading_zeros()) - 4;
    let lo = (v >> shift) << shift;
    (lo, lo + (1 << shift))
}

/// Bin of a reading taken at a poll boundary every `step` ns: the
/// event happened in the `step` before the poll that saw it. Readings
/// are rounded up to the boundary first (a log-bucket histogram
/// reports a boundary value's bucket floor, just below it).
pub fn poll_bin(step: u64) -> impl Fn(u64) -> (u64, u64) {
    move |v| {
        let hi = v.max(1).div_ceil(step) * step;
        (hi - step, hi)
    }
}

/// Parts per million of `part` in `whole` (0 when `whole` is 0).
pub fn ppm(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 1e6 / whole as f64
    }
}

/// `a / b`, 0 when `b` is 0 — per-op ratios on workloads where the
/// layer did no such work.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(2_000_000), Some(99));
        for n in 20..1000u64 {
            let p = tail_percentile(n).unwrap();
            let beyond = n as f64 * (1.0 - p as f64 / 100.0);
            assert!(beyond >= 10.0 - 1e-9, "n={n} p={p} leaves {beyond}");
        }
    }

    #[test]
    fn p75_and_median_on_known_vectors() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(p75(&v), 4.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(p75(&[1.0, 2.0]), 1.75);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), (2.75, 5.5, 8.25));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 50], n=4) == [12.5, 25.0, 45.0]
        assert_eq!(
            quartiles_exclusive(&[30.0, 10.0, 50.0, 20.0]),
            (12.5, 25.0, 45.0)
        );
        assert_eq!(iqr_share(&[7.0; 10]), 0.0);
    }

    #[test]
    fn grouped_quantile_interpolates_inside_the_bin() {
        // 100 samples polled every 100: 60 seen at 100, 39 at 200, 1 at 300.
        let readings: Vec<u64> = [vec![100; 60], vec![200; 39], vec![300; 1]].concat();
        let at = |rank: u64| readings[rank as usize - 1];
        let q = |q| grouped_quantile(100, at, poll_bin(100), q);
        assert!((q(0.30) - 50.0).abs() < 1e-9, "half of the first bin's 60");
        assert!((q(0.50) - 100.0 * 50.0 / 60.0).abs() < 1e-9);
        assert!(
            (q(0.60) - 100.0).abs() < 1e-9,
            "bin edge exactly at its cumulative share"
        );
        assert!((q(0.99) - 200.0).abs() < 1e-9);
        assert!(
            (q(0.995) - 250.0).abs() < 1e-9,
            "half-way through the last, single-sample bin"
        );
        // Moving one sample between bins moves the estimate a little, not a whole bin.
        let shifted: Vec<u64> = [vec![100; 59], vec![200; 40], vec![300; 1]].concat();
        let q2 = grouped_quantile(100, |r| shifted[r as usize - 1], poll_bin(100), 0.50);
        assert!((q2 - q(0.50)).abs() < 2.0);
        assert_eq!(grouped_quantile(0, |_| 0, poll_bin(100), 0.5), 0.0);
    }

    #[test]
    fn bins_cover_their_readings() {
        assert_eq!(log16_bin(7), (7, 8));
        assert_eq!(log16_bin(16), (16, 17));
        assert_eq!(log16_bin(100_000), (98_304, 102_400));
        assert_eq!(log16_bin(98_304), (98_304, 102_400));
        assert_eq!(log16_bin(196_608), (196_608, 204_800));
        for v in [17u64, 1000, 4095, 4096, 123_456_789] {
            let (lo, hi) = log16_bin(v);
            assert!(lo <= v && v < hi && (hi - lo) * 16 <= lo.next_power_of_two());
        }
        let poll = poll_bin(100_000);
        assert_eq!(poll(100_000), (0, 100_000));
        assert_eq!(
            poll(196_608),
            (100_000, 200_000),
            "bucket floor of a 200 µs reading"
        );
        assert_eq!(poll(200_000), (100_000, 200_000));
        assert_eq!(poll(0), (0, 100_000));
    }

    #[test]
    fn ppm_and_ratio_guard_zero() {
        assert_eq!(ppm(1, 1_000_000), 1.0);
        assert_eq!(ppm(3, 0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
        assert_eq!(ratio(6.0, 0.0), 0.0);
    }
}
