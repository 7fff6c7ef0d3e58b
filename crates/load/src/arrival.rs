//! Open-loop arrival processes over the deterministic seeded RNG.
//!
//! Open-loop means arrivals do not wait for completions: the modeled
//! population keeps offering work at its own rate whether or not the
//! cluster keeps up, which is what exposes queueing collapse — a
//! closed-loop driver would politely slow down and hide it.

use ampnet_sim::{SimDuration, SimRng};

/// The shape of the interarrival process. All three are normalised to
/// the same mean offered rate so sweep cells differ only in burstiness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless exponential gaps — the classic M/·/· offered load.
    Poisson,
    /// Heavy-tailed Pareto gaps (tail index `alpha`, same mean):
    /// long quiet stretches punctuated by dense bursts.
    Pareto {
        /// Tail index; must exceed 1 for the mean to exist. 1.5 is the
        /// classic self-similar-traffic setting.
        alpha: f64,
    },
    /// Sinusoidal rate modulation around the mean with relative
    /// amplitude `swing` ∈ [0, 1) and the given period — a compressed
    /// day/night cycle.
    Diurnal {
        /// Modulation period (one simulated "day").
        period: SimDuration,
        /// Relative amplitude of the rate swing (0 = flat, 0.9 = the
        /// trough offers 10% of the mean and the peak 190%).
        swing: f64,
    },
}

impl ArrivalProcess {
    /// Short lower-case name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Pareto { .. } => "pareto",
            ArrivalProcess::Diurnal { .. } => "diurnal",
        }
    }
}

/// Generates arrival counts per tick for one workload class.
///
/// Gaps are sampled lazily and carried across tick boundaries, so the
/// process is exact for Poisson/Pareto; the diurnal ramp uses the
/// instantaneous rate at each gap's start (piecewise-exponential
/// approximation, fine at tick ≪ period).
#[derive(Debug)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    /// Mean offered rate, arrivals per nanosecond.
    rate_per_ns: f64,
    rng: SimRng,
    /// Absolute instant (ns since generator start) of the next arrival.
    next_at_ns: f64,
}

impl ArrivalGen {
    /// A generator offering `rate_per_s` mean arrivals per second.
    pub fn new(process: ArrivalProcess, rate_per_s: f64, rng: SimRng) -> Self {
        assert!(rate_per_s > 0.0, "offered rate must be positive");
        if let ArrivalProcess::Pareto { alpha } = process {
            assert!(alpha > 1.0, "Pareto tail index must exceed 1");
        }
        if let ArrivalProcess::Diurnal { swing, .. } = process {
            assert!((0.0..1.0).contains(&swing), "swing must be in [0, 1)");
        }
        let mut gen = ArrivalGen {
            process,
            rate_per_ns: rate_per_s / 1e9,
            rng,
            next_at_ns: 0.0,
        };
        gen.next_at_ns = gen.gap_ns(0.0);
        gen
    }

    /// Instantaneous rate (arrivals/ns) at `now_ns`.
    fn rate_at(&self, now_ns: f64) -> f64 {
        match self.process {
            ArrivalProcess::Poisson | ArrivalProcess::Pareto { .. } => self.rate_per_ns,
            ArrivalProcess::Diurnal { period, swing } => {
                let phase = 2.0 * std::f64::consts::PI * now_ns / period.as_nanos() as f64;
                self.rate_per_ns * (1.0 + swing * phase.sin())
            }
        }
    }

    /// One interarrival gap starting at `now_ns`, in nanoseconds.
    fn gap_ns(&mut self, now_ns: f64) -> f64 {
        let mean = 1.0 / self.rate_at(now_ns);
        match self.process {
            ArrivalProcess::Poisson | ArrivalProcess::Diurnal { .. } => {
                self.rng.exponential(mean)
            }
            ArrivalProcess::Pareto { alpha } => {
                // Scale chosen so the mean gap equals `mean`:
                // E[X] = xm·α/(α−1) for X ~ Pareto(xm, α).
                let xm = mean * (alpha - 1.0) / alpha;
                let u = self.rng.f64();
                xm / (1.0 - u).powf(1.0 / alpha)
            }
        }
    }

    /// Number of arrivals with instants ≤ `until_ns` (ns since
    /// generator start). Monotone: callers pass tick ends in order.
    pub fn arrivals_until(&mut self, until_ns: u64) -> u64 {
        let mut count = 0;
        while self.next_at_ns <= until_ns as f64 {
            count += 1;
            let at = self.next_at_ns;
            self.next_at_ns = at + self.gap_ns(at);
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(process: ArrivalProcess, rate_per_s: f64, window_ms: u64, seed: u64) -> u64 {
        let mut gen = ArrivalGen::new(process, rate_per_s, SimRng::new(seed));
        let mut sum = 0;
        for tick in 1..=window_ms {
            sum += gen.arrivals_until(tick * 1_000_000);
        }
        sum
    }

    #[test]
    fn poisson_mean_rate_is_respected() {
        // 50k/s over 100 ms ⇒ 5000 expected; Poisson σ ≈ 71.
        let n = total(ArrivalProcess::Poisson, 50_000.0, 100, 7);
        assert!((4700..5300).contains(&n), "got {n}");
    }

    #[test]
    fn pareto_same_mean_but_burstier() {
        let process = ArrivalProcess::Pareto { alpha: 1.5 };
        let n = total(process, 50_000.0, 100, 7);
        // The mean matches Poisson (loose bounds: heavy tail ⇒ slow LLN).
        assert!((3000..8000).contains(&n), "got {n}");
        // Burstiness: the index of dispersion (variance/mean of per-tick
        // counts) is ≈ 1 for Poisson and far above it for heavy tails.
        let dispersion = |process: ArrivalProcess| {
            let mut gen = ArrivalGen::new(process, 50_000.0, SimRng::new(7));
            let counts: Vec<u64> = (1..=100u64).map(|t| gen.arrivals_until(t * 1_000_000)).collect();
            let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
            let var = counts
                .iter()
                .map(|&c| (c as f64 - mean).powi(2))
                .sum::<f64>()
                / counts.len() as f64;
            var / mean
        };
        let pareto = dispersion(process);
        let poisson = dispersion(ArrivalProcess::Poisson);
        assert!(
            pareto > 2.0 && pareto > 2.0 * poisson,
            "heavy tail should overdisperse: pareto {pareto:.2}, poisson {poisson:.2}"
        );
    }

    #[test]
    fn diurnal_peak_outweighs_trough() {
        let process = ArrivalProcess::Diurnal {
            period: SimDuration::from_millis(100),
            swing: 0.9,
        };
        let mut gen = ArrivalGen::new(process, 50_000.0, SimRng::new(7));
        // First half-period rides the sin>0 crest, second the trough.
        let peak: u64 = (1..=50u64).map(|t| gen.arrivals_until(t * 1_000_000)).sum();
        let trough: u64 = (51..=100u64).map(|t| gen.arrivals_until(t * 1_000_000)).sum();
        assert!(
            peak > 3 * trough,
            "diurnal ramp missing: peak {peak}, trough {trough}"
        );
    }

    #[test]
    fn same_seed_same_arrivals() {
        for process in [
            ArrivalProcess::Poisson,
            ArrivalProcess::Pareto { alpha: 1.5 },
            ArrivalProcess::Diurnal {
                period: SimDuration::from_millis(4),
                swing: 0.6,
            },
        ] {
            let a: Vec<u64> = {
                let mut g = ArrivalGen::new(process, 80_000.0, SimRng::new(42));
                (1..=20u64).map(|t| g.arrivals_until(t * 100_000)).collect()
            };
            let b: Vec<u64> = {
                let mut g = ArrivalGen::new(process, 80_000.0, SimRng::new(42));
                (1..=20u64).map(|t| g.arrivals_until(t * 100_000)).collect()
            };
            assert_eq!(a, b);
        }
    }

    #[test]
    #[should_panic(expected = "tail index")]
    fn shallow_pareto_rejected() {
        let _ = ArrivalGen::new(
            ArrivalProcess::Pareto { alpha: 0.9 },
            1000.0,
            SimRng::new(1),
        );
    }
}
