//! The [`LoadReport`]: per-class statistics, SLO verdicts and a
//! byte-stable JSON rendering.
//!
//! Determinism contract: the report is a pure function of the spec and
//! the cluster seed. [`LoadReport::to_json`] emits integers only (no
//! floats, no maps with unstable order), so "same seed ⇒ same report"
//! can be checked as plain byte equality — the CI `load` job does
//! exactly that.

use crate::slo::SloVerdict;
use ampnet_telemetry::Histogram;
use std::fmt::Write as _;

/// Measured outcome of one workload class.
#[derive(Debug, Clone)]
pub struct ClassStats {
    /// Class name (a [`crate::catalog`] entry).
    pub class: &'static str,
    /// Modeled client operations offered by the arrival process.
    pub offered: u64,
    /// Service operations actually driven (batched dispatch).
    pub dispatched: u64,
    /// Operations that completed end to end.
    pub completed: u64,
    /// Operations lost: shed at dispatch, lagged past, or still
    /// unfinished when the run ended.
    pub failed: u64,
    /// End-to-end latency of completed operations (ns).
    pub latency: Histogram,
}

impl ClassStats {
    /// New empty stats for `class`.
    pub fn new(class: &'static str) -> Self {
        ClassStats {
            class,
            offered: 0,
            dispatched: 0,
            completed: 0,
            failed: 0,
            latency: Histogram::new(),
        }
    }

    /// Delivery attempts the class is judged against.
    pub fn attempts(&self) -> u64 {
        self.completed + self.failed
    }

    /// Completed/attempted in parts per million (1_000_000 when
    /// nothing was attempted — an idle class keeps its SLO).
    pub fn delivered_ppm(&self) -> u64 {
        let attempts = self.attempts();
        if attempts == 0 {
            return 1_000_000;
        }
        self.completed * 1_000_000 / attempts
    }
}

/// Result of one workload-engine run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Cluster seed the run used.
    pub seed: u64,
    /// Modeled client population size.
    pub population: u64,
    /// Arrival-process name.
    pub process: &'static str,
    /// Measurement ticks executed.
    pub ticks: u32,
    /// Tick length (ns).
    pub tick_ns: u64,
    /// Per-class statistics, catalog order.
    pub classes: Vec<ClassStats>,
    /// Per-class SLO verdicts, catalog order.
    pub verdicts: Vec<SloVerdict>,
    /// Chaos-invariant violations (`"name: detail"`), trip order.
    pub violations: Vec<String>,
    /// Simulated end of run (ns).
    pub final_time_ns: u64,
}

impl LoadReport {
    /// `true` when every SLO verdict passed and no invariant tripped.
    pub fn all_slos_pass(&self) -> bool {
        self.violations.is_empty() && self.verdicts.iter().all(|v| v.pass())
    }

    /// One line per class plus one per failed objective/violation.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "load run seed={} population={} process={}: ",
            self.seed, self.population, self.process
        );
        for c in &self.classes {
            let _ = write!(
                s,
                "{}[{}d/{}c p99={}ns] ",
                c.class,
                c.dispatched,
                c.completed,
                c.latency.p99()
            );
        }
        for v in &self.verdicts {
            if !v.pass() {
                let _ = write!(s, "\nSLO FAIL {}: {}", v.class, v.detail());
            }
        }
        for viol in &self.violations {
            let _ = write!(s, "\nINVARIANT {viol}");
        }
        s
    }

    /// Byte-stable JSON: integers only, fixed key order.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        let _ = write!(
            s,
            "{{\"seed\": {}, \"population\": {}, \"process\": \"{}\", \"ticks\": {}, \
             \"tick_ns\": {}, \"final_time_ns\": {}, \"classes\": [",
            self.seed, self.population, self.process, self.ticks, self.tick_ns, self.final_time_ns
        );
        for (i, c) in self.classes.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"class\": \"{}\", \"offered\": {}, \"dispatched\": {}, \"completed\": {}, \
                 \"failed\": {}, \"delivered_ppm\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
                 \"p999_ns\": {}}}",
                c.class,
                c.offered,
                c.dispatched,
                c.completed,
                c.failed,
                c.delivered_ppm(),
                c.latency.p50(),
                c.latency.p99(),
                c.latency.quantile(0.999)
            );
        }
        s.push_str("], \"verdicts\": [");
        for (i, v) in self.verdicts.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"class\": \"{}\", \"pass\": {}, \"p99_pass\": {}, \"delivered_pass\": {}, \
                 \"degraded_pass\": {}, \"p99_ns\": {}, \"delivered_ppm\": {}, \
                 \"degraded_window_ns\": {}}}",
                v.class,
                v.pass(),
                v.p99_pass(),
                v.delivered_pass(),
                v.degraded_pass(),
                v.p99_ns,
                v.delivered_ppm,
                v.degraded_window_ns
            );
        }
        let _ = write!(
            s,
            "], \"violations\": {}, \"all_slos_pass\": {}, \"digest\": \"{:#018x}\"}}",
            self.violations.len(),
            self.all_slos_pass(),
            self.digest()
        );
        s
    }

    /// FNV-1a digest over everything `to_json` renders except the
    /// digest field itself (seed, counts, percentiles, verdicts).
    pub fn digest(&self) -> u64 {
        let mut h = ampnet_sim::Fnv64::new();
        h.fold_u64(self.seed).fold_u64(self.population);
        // Fold the process *bytes*, not just its length: a 1M-client
        // cell saturates batch_cap every tick under any process, and
        // over whole diurnal periods the offered totals match Poisson's
        // to ±1 on the same substream — the process name can be the
        // only field separating two otherwise identical reports.
        for b in self.process.bytes() {
            h.fold_u64(b as u64);
        }
        h.fold_u64(self.ticks as u64).fold_u64(self.final_time_ns);
        for c in &self.classes {
            let l = &c.latency;
            for v in [c.offered, c.dispatched, c.completed, c.failed] {
                h.fold_u64(v);
            }
            for v in [l.count(), l.p50(), l.p99(), l.quantile(0.999)] {
                h.fold_u64(v);
            }
        }
        for s in &self.verdicts {
            for v in [s.p99_ns, s.delivered_ppm, s.degraded_window_ns, s.pass() as u64] {
                h.fold_u64(v);
            }
        }
        h.fold_u64(self.violations.len() as u64).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LoadReport {
        let mut c = ClassStats::new("pubsub");
        c.offered = 100;
        c.dispatched = 10;
        c.completed = 9;
        c.failed = 1;
        c.latency.record(500);
        c.latency.record(900);
        LoadReport {
            seed: 7,
            population: 1000,
            process: "poisson",
            ticks: 4,
            tick_ns: 100_000,
            classes: vec![c],
            verdicts: vec![],
            violations: vec![],
            final_time_ns: 400_000,
        }
    }

    #[test]
    fn json_is_integer_only_and_stable() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        assert!(!a.contains('.'), "floats would break byte determinism: {a}");
        assert!(a.contains("\"delivered_ppm\": 900000"));
    }

    #[test]
    fn digest_tracks_content() {
        let base = sample();
        let mut tweaked = sample();
        tweaked.classes[0].completed = 10;
        assert_ne!(base.digest(), tweaked.digest());
        assert_eq!(base.digest(), sample().digest());
    }

    #[test]
    fn digest_separates_same_length_process_names() {
        // Regression: a saturated 1M-client cell can produce identical
        // counts under "poisson" and "diurnal" (same substream, whole
        // modulation periods); the digest used to eat only the name's
        // length — 7 for both — and collided.
        let base = sample();
        let mut renamed = sample();
        renamed.process = "diurnal";
        assert_ne!(base.digest(), renamed.digest());
    }

    #[test]
    fn idle_class_keeps_its_slo() {
        let c = ClassStats::new("idle");
        assert_eq!(c.delivered_ppm(), 1_000_000);
    }
}
