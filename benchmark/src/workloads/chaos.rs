//! `chaos_heal`: a 16-node quad-crossbar cluster under all-to-all
//! messaging, a cache write storm, a guarded seqlock probe and the
//! replicated-counter failover app, while ten 48 ms cycles of
//! {crash node 3, cut fiber (5,0), fail switch 1, rejoin 3, splice,
//! repair} run 8 ms apart. The same ring as the other workloads, used
//! differently: roster floods, ring solving, assimilation and cache
//! refresh, smart-data replay, stale-frame release, timer cancels —
//! `roster`, `topo`, `dk` and `cache::refresh` do the work, steady
//! forwarding little. It carries the paper's recovery claims.
//!
//! The timed pass is one `Scenario::run()`, boot and per-step invariant
//! checks included: that is what a chaos sweep pays per seed. The
//! engine builds its cluster internally, so the traced pass is a
//! *mirror*: the same schedule driven step by step through the public
//! `Cluster`/`Ledger`/`apply_fault_schedule` API, which lets the
//! harness put spans around each call and read the cluster's counters.
//! The mirror's facts (ledger totals, roster latencies, trace digest)
//! must equal the engine's, so it provably measured the same run.
//!
//! `ErrorBurst` is deliberately not in the cycle: see README, findings.

use super::{cluster_counts, Counts, PassFacts, PassOutput, Prepared};
use crate::spans::Spans;
use crate::stats::{ppm, ratio};
use ampnet_chaos::{
    apply_fault_schedule, FaultEvent, FaultOp, Ledger, RunReport, Scenario, Traffic,
};
use ampnet_core::{
    Cluster, ClusterConfig, CounterAppConfig, FailoverPolicy, RecordLayout, RosterReason,
    SeqProbeConfig, SimDuration, SimTime,
};
use ampnet_sim::SimRng;

const NODES: usize = 16;
const CYCLES: u64 = 10;
const CYCLE: SimDuration = SimDuration::from_millis(48);
const FIRST_FAULT: SimDuration = SimDuration::from_millis(8);
const FAULT_GAP: SimDuration = SimDuration::from_millis(8);
const STEP: SimDuration = SimDuration::from_millis(4);
pub const STEPS: u32 = 122;
const WARMUP: SimDuration = SimDuration::from_millis(5);
const SETTLE: SimDuration = SimDuration::from_millis(30);
const TRACE_CAPACITY: usize = 512;
const COUNTER_MEMBERS: [(u8, u32); 3] = [(1, 90), (2, 70), (4, 80)];
const CYCLE_OPS: [FaultOp; 6] = [
    FaultOp::CrashNode(3),
    FaultOp::CutFiber(5, 0),
    FaultOp::FailSwitch(1),
    FaultOp::Rejoin(3),
    FaultOp::SpliceFiber(5, 0),
    FaultOp::RepairSwitch(1),
];

// The scenario engine's own conventions, which the mirror has to
// repeat: message stream, cache offsets of its generators, probe
// periods and flight-recorder depth (crates/chaos/src/engine.rs). If
// they drift, the mirror's digest stops matching and the run fails.
const CHAOS_STREAM: u8 = 1;
const SEQLOCK_LAYOUT: RecordLayout = RecordLayout {
    region: 0,
    offset: 1024,
    data_len: 64,
};
const COUNTER_LAYOUT: RecordLayout = RecordLayout {
    region: 0,
    offset: 4096,
    data_len: 8,
};
const HEARTBEAT_LAYOUT: RecordLayout = RecordLayout {
    region: 0,
    offset: 4160,
    data_len: 8,
};
const STORM_BASE: u32 = 8192;
const STORM_STRIDE: u32 = 64;
const STORM_BYTES: usize = 8;
const FLIGHT_CAPACITY: usize = 1024;

/// The plant's fiber run is an input too: 100–150 m, drawn from the
/// seed. Every hop, roster tour and timeout-free recovery phase scales
/// with it, so the simulated recovery times differ from seed to seed
/// the way they would from one machine room to the next.
fn config(seed: u64) -> ClusterConfig {
    let fiber_m = 100.0 + SimRng::new(seed).derive("chaos/fiber").below(50_000) as f64 / 1000.0;
    ClusterConfig::small(NODES)
        .with_seed(seed)
        .with_fiber(fiber_m)
}

/// The fault schedule: fixed, on the traffic-step grid. It is not an
/// input the seed varies, on purpose: moved off the grid, or moved
/// fault by fault, the storm trips the repo's own invariants on most
/// seeds (README, findings), and a benchmark workload must be one on
/// which nothing fails. The seed varies the plant instead (`config`).
fn faults() -> Vec<FaultEvent> {
    let mut out = vec![];
    for cycle in 0..CYCLES {
        for (i, &op) in CYCLE_OPS.iter().enumerate() {
            let at = FIRST_FAULT + CYCLE.saturating_mul(cycle) + FAULT_GAP.saturating_mul(i as u64);
            out.push(FaultEvent { at, op });
        }
    }
    out
}

fn scenario(seed: u64) -> Scenario {
    let mut b = Scenario::builder(config(seed))
        .warmup(WARMUP)
        .step_len(STEP)
        .steps(STEPS)
        .settle(SETTLE)
        .trace_capacity(TRACE_CAPACITY)
        .traffic(Traffic::all_to_all())
        .traffic(Traffic::cache_storm())
        .traffic(Traffic::seqlock(0, vec![1, 2]))
        .traffic(Traffic::counter_failover(COUNTER_MEMBERS.to_vec()));
    for f in faults() {
        b = b.fault_in(f.at, f.op);
    }
    b.standard_invariants().build()
}

/// What both drivers reduce a run to.
struct Outcome {
    sent: u64,
    delivered: u64,
    doomed: u64,
    roster_episodes: usize,
    reconvergence_ns: u64,
    failover_ns: u64,
    final_time: SimTime,
    trace_digest: u64,
}

impl Outcome {
    fn of(r: &RunReport) -> Self {
        Outcome {
            sent: r.sent,
            delivered: r.delivered,
            doomed: r.doomed,
            roster_episodes: r.roster_episodes,
            reconvergence_ns: r.reconvergence_ns,
            failover_ns: r.failover_ns,
            final_time: r.final_time,
            trace_digest: r.trace_digest,
        }
    }

    fn facts(&self) -> (PassFacts, Vec<String>) {
        let recoveries = self.roster_episodes.saturating_sub(1) as u64;
        let facts = PassFacts {
            ops: self.delivered,
            attempted: self.sent,
            failed: self.sent.saturating_sub(self.delivered + self.doomed),
            // Messages are delivered while the ring is live: the window
            // is the run minus the time spent reconverging.
            sim_window_ns: self.final_time.0.saturating_sub(self.reconvergence_ns),
            // Mean and worst failure → ring-live time over the run's
            // post-boot roster episodes.
            sim_delay_typical_ns: ratio(self.reconvergence_ns as f64, recoveries as f64),
            sim_delay_tail_ns: self.failover_ns as f64,
            tail_percentile: 100,
            delay_samples: recoveries,
            digest: self.trace_digest,
        };
        let mut errors = vec![];
        if self.sent != self.delivered + self.doomed {
            errors.push(format!(
                "sent {} ≠ delivered {} + doomed {}",
                self.sent, self.delivered, self.doomed
            ));
        }
        if recoveries == 0 {
            errors.push("the fault storm produced no roster episode".into());
        }
        (facts, errors)
    }
}

struct Engine {
    scenario: Scenario,
}

struct Mirror {
    cluster: Cluster,
    before: ampnet_telemetry::MetricsSnapshot,
}

pub fn setup(seed: u64, traced: bool, spans: &mut Spans) -> Box<dyn Prepared> {
    // The set-up a chaos run pays: an identical cluster constructed and
    // booted to ring-up. The engine repeats it inside `run()`; the
    // mirror continues on this very cluster.
    let mut cluster = Cluster::new(config(seed));
    cluster.enable_trace(TRACE_CAPACITY);
    cluster.enable_telemetry(FLIGHT_CAPACITY);
    spans.scope("boot", || cluster.run_for(WARMUP));
    assert!(cluster.ring_up(), "cluster did not boot within {WARMUP:?}");
    if traced {
        let before = cluster.metrics_snapshot();
        Box::new(Mirror { cluster, before })
    } else {
        Box::new(Engine {
            scenario: scenario(seed),
        })
    }
}

impl Prepared for Engine {
    fn run(self: Box<Self>, spans: &mut Spans) -> PassOutput {
        let report = spans.scope("advance", || self.scenario.run());
        let (facts, mut errors) = Outcome::of(&report).facts();
        if !report.ok() {
            errors.push(report.summary());
        }
        let tour_note = format!(
            "{} roster episodes; recovery mean {:.0} ns, worst {} ns; {} doomed of {} sent; digest {:#018x}",
            report.roster_episodes, facts.sim_delay_typical_ns, report.failover_ns, report.doomed, report.sent, report.trace_digest
        );
        PassOutput {
            facts,
            errors,
            counts: Counts::new(),
            notes: vec![tour_note],
        }
    }
}

impl Prepared for Mirror {
    fn run(self: Box<Self>, spans: &mut Spans) -> PassOutput {
        let Mirror {
            mut cluster,
            before,
        } = *self;
        let n = NODES as u8;
        let events_before = cluster.events_processed();
        spans.enter("inject");
        let deadline = cluster.now() + STEP.saturating_mul(STEPS as u64);
        cluster.start_seqlock_probe(SeqProbeConfig {
            writer: 0,
            readers: vec![1, 2],
            layout: SEQLOCK_LAYOUT,
            write_interval: SimDuration::from_micros(20),
            read_interval: SimDuration::from_micros(7),
            guarded: true,
            deadline,
        });
        cluster.start_counter_app(CounterAppConfig {
            members: COUNTER_MEMBERS.to_vec(),
            policy: FailoverPolicy::default(),
            counter_layout: COUNTER_LAYOUT,
            heartbeat_layout: HEARTBEAT_LAYOUT,
            deadline,
        });
        let crashes = apply_fault_schedule(&mut cluster, &faults());
        spans.exit();

        let mut ledger = Ledger::default();
        let mut next_crash = 0usize;
        let mut drain = |cluster: &mut Cluster, ledger: &mut Ledger| {
            for node in 0..n {
                while let Some(d) = cluster.pop_message(node) {
                    ledger.drained(node, &d.payload);
                }
            }
            while next_crash < crashes.len() && crashes[next_crash].0 <= cluster.now() {
                ledger.doom_endpoint(crashes[next_crash].1);
                next_crash += 1;
            }
        };
        for step in 0..STEPS {
            spans.scope("inject", || emit_traffic(&mut cluster, &mut ledger, step));
            spans.scope("advance", || cluster.run_for(STEP));
            spans.scope("drain", || drain(&mut cluster, &mut ledger));
        }
        spans.scope("advance", || cluster.run_for(SETTLE));
        spans.scope("drain", || drain(&mut cluster, &mut ledger));

        spans.enter("verify");
        let (mut total, mut worst, mut tours_max, mut rejoins) = (0u64, 0u64, 0f64, 0u64);
        for ev in cluster.roster_history() {
            if matches!(ev.reason, RosterReason::Boot) {
                continue;
            }
            let ns = ev.outcome.recovery_time().as_nanos();
            total += ns;
            worst = worst.max(ns);
            tours_max = tours_max.max(ev.outcome.recovery_in_tours());
            if matches!(ev.reason, RosterReason::Join(_)) {
                rejoins += 1;
            }
        }
        let outcome = Outcome {
            sent: ledger.sent(),
            delivered: ledger.delivered,
            doomed: ledger.doomed_total,
            roster_episodes: cluster.roster_history().len(),
            reconvergence_ns: total,
            failover_ns: worst,
            final_time: cluster.now(),
            trace_digest: cluster.trace().digest(),
        };
        let (facts, mut errors) = outcome.facts();
        if cluster.total_drops() != 0 {
            errors.push(format!("ring drops = {}", cluster.total_drops()));
        }
        if !ledger.duplicates.is_empty() || !ledger.wrong_node.is_empty() {
            errors.push(format!(
                "{} duplicate and {} misdelivered messages",
                ledger.duplicates.len(),
                ledger.wrong_node.len()
            ));
        }
        let events = cluster.events_processed() - events_before;
        let mut counts = Counts::new();
        cluster_counts(&before, &cluster.metrics_snapshot(), facts.ops, &mut counts);
        counts.insert("sim.events_per_op", ratio(events as f64, facts.ops as f64));
        counts.insert("roster.recovery_tours_max", tours_max);
        counts.insert("roster.recovery_mean_ns", facts.sim_delay_typical_ns);
        counts.insert("dk.rejoins", rejoins as f64);
        counts.insert("chaos.doomed_ppm", ppm(outcome.doomed, outcome.sent));
        spans.exit();
        let notes = vec![format!(
            "mirror: {events} events, worst recovery {worst} ns = {tours_max:.2} ring tours (slide 16: about two), {rejoins} rejoins"
        )];
        PassOutput {
            facts,
            errors,
            counts,
            notes,
        }
    }
}

/// One step of the engine's stateless traffic: all-to-all messaging
/// among online nodes, then one cache-storm write per online node.
fn emit_traffic(cluster: &mut Cluster, ledger: &mut Ledger, step: u32) {
    let n = NODES as u8;
    for src in 0..n {
        if !cluster.node_online(src) {
            continue;
        }
        for dst in 0..n {
            if dst == src || !cluster.node_online(dst) {
                continue;
            }
            let payload = ledger.send(src, dst, cluster.now());
            cluster.send_message(src, dst, CHAOS_STREAM, &payload);
        }
    }
    for node in 0..n {
        if !cluster.node_online(node) {
            continue;
        }
        let mut data = [0u8; STORM_BYTES];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (step as u8)
                .wrapping_mul(31)
                .wrapping_add(node)
                .wrapping_add(i as u8);
        }
        cluster.cache_write(node, 0, STORM_BASE + node as u32 * STORM_STRIDE, &data);
    }
}
