//! `services_load`: the `ampnet-load` engine on a 6-node cluster —
//! five service classes (pub/sub, file cache, sockets, remote threads,
//! a semaphore storm) under open-loop Poisson arrivals from a modelled
//! population of 8000 clients at 25 ops/s each, for 8000 ticks of
//! 100 µs. `services`, `cache` (seqlock writes beside polling reads,
//! D64 semaphores) and `load` itself dominate.
//!
//! Beside the timed rung there is an untimed, deterministic *rate
//! ladder* (populations 4000 … 16000 over 20000 ticks each) that finds
//! the knee: the highest offered rate every class still serves within
//! its catalogue SLO. A 40-tick cell can never show it.

use super::{cluster_counts, hist_quantile, Counts, PassFacts, PassOutput, Prepared};
use crate::spans::Spans;
use crate::stats::{poll_bin, ppm, tail_percentile};
use ampnet_core::{Cluster, ClusterConfig, FileStoreLayout, SimDuration, Telemetry};
use ampnet_load::{catalog, ArrivalGen, ArrivalProcess, LoadReport, LoadSpec};
use ampnet_services::subscribe::TopicLayout;
use ampnet_sim::SimRng;
use ampnet_telemetry::Histogram;

const NODES: usize = 6;
const PER_CLIENT_RATE: f64 = 25.0;
const TICK: SimDuration = SimDuration::from_micros(100);
/// Dispatch cap per class and tick. The engine's default cell uses 8
/// and the issue proposed 16; at 16 about one seed in thirty sheds a
/// single arrival on the timed rung (Poisson mean 4 per tick), and the
/// benchmark wants workloads on which no operation fails. At 32 the
/// cap never binds on any rung, so the ladder's knee is the services'
/// own (the AmpThreads table), not the harness's.
const BATCH_CAP: u64 = 32;
pub const TIMED_POPULATION: u64 = 8000;
const TIMED_TICKS: u32 = 8000;
pub const LADDER_POPULATIONS: [u64; 4] = [4000, 8000, 12000, 16000];
const LADDER_TICKS: u32 = 20000;
/// Classes driven by the open-loop arrival processes (catalogue order);
/// the fifth, `sem`, is a closed-loop storm.
const OPEN_LOOP: usize = 4;
/// A pub/sub publish is judged at two subscribers, so a shed publish is
/// two lost deliveries.
const PUBSUB_FANOUT: u64 = 2;
const MIN_DELIVERED_PPM: f64 = 990_000.0;

fn config(seed: u64) -> ClusterConfig {
    ClusterConfig::small(NODES).with_seed(seed)
}

fn spec(population: u64, ticks: u32) -> LoadSpec {
    let mut spec = LoadSpec::standard(population, ArrivalProcess::Poisson);
    spec.per_client_rate = PER_CLIENT_RATE;
    spec.tick = TICK;
    spec.ticks = ticks;
    spec.batch_cap = BATCH_CAP;
    spec
}

/// Arrivals the engine's batch cap refused, per open-loop class: the
/// engine counts them as offered but never dispatches them, and its
/// `failed` column does not include them. The arrival processes are
/// public and seeded by class name, so the harness regenerates the
/// exact per-tick arrival counts; `offered` must match the engine's.
fn shed_per_class(seed: u64, spec: &LoadSpec) -> ([u64; OPEN_LOOP], [u64; OPEN_LOOP]) {
    let root = SimRng::new(seed);
    let class_rate = spec.population as f64 * spec.per_client_rate / catalog::ALL.len() as f64;
    let (mut shed, mut offered) = ([0u64; OPEN_LOOP], [0u64; OPEN_LOOP]);
    for (c, class) in catalog::ALL.iter().take(OPEN_LOOP).enumerate() {
        let mut gen = ArrivalGen::new(spec.process, class_rate, root.derive(class.name));
        for tick in 0..spec.ticks as u64 {
            let n = gen.arrivals_until((tick + 1) * spec.tick.as_nanos());
            offered[c] += n;
            shed[c] += shed_of_tick(n, spec.batch_cap);
        }
    }
    (shed, offered)
}

/// Arrivals of one tick beyond the dispatch cap.
pub fn shed_of_tick(arrivals: u64, cap: u64) -> u64 {
    arrivals.saturating_sub(cap)
}

/// One class's row once shed is counted as failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassOutcome {
    pub class: &'static str,
    pub completed: u64,
    /// Engine failures plus shed (in the class's delivery units).
    pub failed: u64,
    pub p99_ns: u64,
    pub p99_within_slo: bool,
}

impl ClassOutcome {
    pub fn attempted(&self) -> u64 {
        self.completed + self.failed
    }
    pub fn failed_ppm(&self) -> f64 {
        ppm(self.failed, self.attempted())
    }
    pub fn clean(&self) -> bool {
        ppm(self.completed, self.attempted().max(1)) >= MIN_DELIVERED_PPM && self.p99_within_slo
    }
}

/// Fold shed into the engine's per-class rows (shed accounting).
pub fn class_outcomes(report: &LoadReport, shed: &[u64; OPEN_LOOP]) -> Vec<ClassOutcome> {
    report
        .classes
        .iter()
        .enumerate()
        .map(|(c, stats)| {
            let fanout = if c == 0 { PUBSUB_FANOUT } else { 1 };
            let class_shed = shed.get(c).copied().unwrap_or(0) * fanout;
            let verdict = report.verdicts.iter().find(|v| v.class == stats.class);
            ClassOutcome {
                class: stats.class,
                completed: stats.completed,
                failed: stats.failed + class_shed,
                p99_ns: stats.latency.p99(),
                p99_within_slo: verdict.is_none_or(|v| v.p99_pass()),
            }
        })
        .collect()
}

/// A load report judged from outside: shed folded in, facts derived.
struct Judged {
    facts: PassFacts,
    errors: Vec<String>,
    outcomes: Vec<ClassOutcome>,
    /// Arrivals the dispatch cap refused, all open-loop classes.
    shed: u64,
}

fn judge(seed: u64, spec: &LoadSpec, report: &LoadReport) -> Judged {
    let (shed, offered) = shed_per_class(seed, spec);
    let outcomes = class_outcomes(report, &shed);
    // Completion latency of every open-loop operation. The engine
    // stamps a completion at the harvest after the tick it happened in,
    // so a reading of k ticks means "within the tick before".
    let mut open = Histogram::new();
    for stats in report.classes.iter().take(OPEN_LOOP) {
        open.merge(&stats.latency);
    }
    let tail_p = tail_percentile(open.count()).unwrap_or(50);
    let bin = poll_bin(spec.tick.as_nanos());
    let facts = PassFacts {
        ops: outcomes.iter().map(|o| o.completed).sum(),
        attempted: outcomes.iter().map(ClassOutcome::attempted).sum(),
        failed: outcomes.iter().map(|o| o.failed).sum(),
        sim_window_ns: spec.tick.as_nanos() * spec.ticks as u64,
        sim_delay_typical_ns: hist_quantile(&open, 0.50, &bin),
        sim_delay_tail_ns: hist_quantile(&open, tail_p as f64 / 100.0, &bin),
        tail_percentile: tail_p,
        delay_samples: open.count(),
        digest: report.digest(),
    };
    let mut errors = vec![];
    for (c, stats) in report.classes.iter().take(OPEN_LOOP).enumerate() {
        if stats.offered != offered[c] {
            errors.push(format!(
                "{}: regenerated {} arrivals, engine offered {} (shed accounting is off)",
                stats.class, offered[c], stats.offered
            ));
        }
    }
    Judged {
        facts,
        errors,
        outcomes,
        shed: shed.iter().sum(),
    }
}

struct Ready {
    seed: u64,
    tel: Option<Telemetry>,
}

pub fn setup(seed: u64, traced: bool, spans: &mut Spans) -> Box<dyn Prepared> {
    // The engine constructs and boots its cluster inside `run`; the
    // set-up a load run pays is measured on an identical one: the same
    // region map (topics, file store, task table), thread table enabled,
    // booted through the engine's 1 ms warm-up.
    let topics = TopicLayout {
        region: 7,
        base: 0,
        slots: 32,
        slot_len: 16,
    };
    let files = FileStoreLayout {
        region: 8,
        max_files: 16,
        heap_bytes: 16 * 1024,
    };
    let cfg = config(seed).with_regions(vec![
        (0, 64 * 1024),
        (7, 4 * topics.footprint()),
        (8, files.footprint()),
        (9, 64 * 16),
    ]);
    let mut cluster = Cluster::new(cfg);
    cluster.enable_threads(9, 64);
    spans.scope("boot", || cluster.run_for(SimDuration::from_millis(1)));
    assert!(
        cluster.ring_up(),
        "cluster did not boot within the engine's warm-up"
    );
    Box::new(Ready {
        seed,
        tel: traced.then(|| Telemetry::new(256)),
    })
}

impl Prepared for Ready {
    fn run(self: Box<Self>, spans: &mut Spans) -> PassOutput {
        let spec = spec(TIMED_POPULATION, TIMED_TICKS);
        let report = spans.scope("advance", || match &self.tel {
            Some(tel) => ampnet_load::run_with(config(self.seed), &spec, tel),
            None => ampnet_load::run(config(self.seed), &spec),
        });
        spans.enter("verify");
        let Judged {
            facts,
            mut errors,
            outcomes,
            shed,
        } = judge(self.seed, &spec, &report);
        for v in &report.violations {
            errors.push(format!("invariant {v}"));
        }
        let mut counts = Counts::new();
        if let Some(tel) = &self.tel {
            let empty = ampnet_telemetry::MetricsSnapshot::default();
            cluster_counts(&empty, &tel.snapshot(), facts.ops, &mut counts);
            // The engine boots inside the pass.
            counts.insert("aux.boot_episodes", 1.0);
            // The engine's kernel is private: events are derived from
            // the PHY counter (one TxDone and one Arrival per frame
            // transmitted; timers are not visible — a lower bound).
            counts.insert("sim.events_per_op", 2.0 * counts["phy.tx_frames_per_op"]);
            let offered: u64 = report
                .classes
                .iter()
                .take(OPEN_LOOP)
                .map(|c| c.offered)
                .sum();
            let dispatched: u64 = report
                .classes
                .iter()
                .take(OPEN_LOOP)
                .map(|c| c.dispatched)
                .sum();
            counts.insert("load.offered", offered as f64);
            counts.insert("load.dispatched_ppm", ppm(dispatched, offered));
            counts.insert("load.shed_ppm", ppm(shed, offered));
            for o in &outcomes {
                let (p99, failed) = match o.class {
                    "pubsub" => ("services.pubsub_p99_ns", "services.pubsub_failed_ppm"),
                    "cache" => ("services.cache_p99_ns", "services.cache_failed_ppm"),
                    "socket" => ("services.socket_p99_ns", "services.socket_failed_ppm"),
                    "threads" => ("services.threads_p99_ns", "services.threads_failed_ppm"),
                    _ => ("services.sem_p99_ns", "services.sem_failed_ppm"),
                };
                counts.insert(p99, o.p99_ns as f64);
                counts.insert(failed, o.failed_ppm());
            }
        }
        spans.exit();
        let notes = vec![format!(
            "{} ops completed of {} attempted ({} failed incl. shed); open-loop latency p50 {:.0} ns, p{} {:.0} ns over {} ops (interval-censored at the {} µs tick); report digest {:#018x}",
            facts.ops,
            facts.attempted,
            facts.failed,
            facts.sim_delay_typical_ns,
            facts.tail_percentile,
            facts.sim_delay_tail_ns,
            facts.delay_samples,
            TICK.as_nanos() / 1000,
            facts.digest
        )];
        PassOutput {
            facts,
            errors,
            counts,
            notes,
        }
    }
}

/// One rung of the rate ladder.
pub struct Rung {
    pub population: u64,
    pub offered_ops_s: f64,
    pub failed_ppm: f64,
    /// The first class that misses its objective, if any.
    pub dirty_class: Option<&'static str>,
    pub note: String,
}

/// Run the ladder (untimed, deterministic) and name the knee.
pub fn ladder(seed: u64) -> Vec<Rung> {
    LADDER_POPULATIONS
        .iter()
        .map(|&population| {
            let spec = spec(population, LADDER_TICKS);
            let report = ampnet_load::run(config(seed), &spec);
            let Judged {
                facts, outcomes, ..
            } = judge(seed, &spec, &report);
            let dirty = outcomes.iter().find(|o| !o.clean());
            let note = match dirty {
                None => "clean".to_string(),
                Some(o) => format!(
                    "{} misses its objective: {:.0} ppm failed, p99 {} ns{}",
                    o.class,
                    o.failed_ppm(),
                    o.p99_ns,
                    if o.p99_within_slo {
                        ""
                    } else {
                        " (over its SLO)"
                    }
                ),
            };
            Rung {
                population,
                offered_ops_s: population as f64 * PER_CLIENT_RATE,
                failed_ppm: ppm(facts.failed, facts.attempted),
                dirty_class: dirty.map(|o| o.class),
                note,
            }
        })
        .collect()
}

/// Highest offered rate below the first dirty rung (0 if the first
/// rung is already dirty).
pub fn max_clean_offered(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .take_while(|r| r.dirty_class.is_none())
        .last()
        .map_or(0.0, |r| r.offered_ops_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_is_what_exceeds_the_cap() {
        assert_eq!(shed_of_tick(0, 16), 0);
        assert_eq!(shed_of_tick(16, 16), 0);
        assert_eq!(shed_of_tick(17, 16), 1);
        assert_eq!(shed_of_tick(40, 16), 24);
    }

    #[test]
    fn shed_counts_as_failure_in_class_outcomes() {
        let mut o = ClassOutcome {
            class: "cache",
            completed: 995,
            failed: 5,
            p99_ns: 100_000,
            p99_within_slo: true,
        };
        assert!(o.clean());
        assert!((o.failed_ppm() - 5000.0).abs() < 1e-9);
        o.failed += 6; // six shed arrivals push it under 990 000 ppm
        assert!(!o.clean());
        o.failed = 0;
        o.p99_within_slo = false;
        assert!(
            !o.clean(),
            "a latency miss is dirty even with nothing failed"
        );
    }

    #[test]
    fn knee_is_the_last_clean_rung_before_the_first_dirty_one() {
        let rung = |population, dirty: Option<&'static str>| Rung {
            population,
            offered_ops_s: population as f64 * PER_CLIENT_RATE,
            failed_ppm: 0.0,
            dirty_class: dirty,
            note: String::new(),
        };
        let rungs = [
            rung(4000, None),
            rung(8000, None),
            rung(12000, Some("threads")),
            rung(16000, None),
        ];
        assert_eq!(max_clean_offered(&rungs), 200_000.0);
        assert_eq!(max_clean_offered(&[rung(4000, Some("threads"))]), 0.0);
    }
}
