//! `multiseg_scale`: 16 segments × 32 nodes in a ring of segments
//! (5 µs bridges), advanced serially with adaptive lookahead. Every
//! 250 µs round each segment sends 96 intra-segment unicasts and one
//! crossing, payloads cycling 8/64/256 B. `core` (cluster dispatch,
//! transport, planner, boundary exchange) and `services::msg`
//! fragmentation dominate; 512 node stacks make it the workload with
//! the large cache footprint, and each ring is only lightly loaded, so
//! a MAC-only gain should barely move it.
//!
//! One schedule, three drivers: the timed pass steps a round at a time
//! and pops everything at the end; the traced pass is the same with
//! telemetry on; the latency probe steps 10 µs at a time and pops after
//! every step, so each datagram's pop instant is known to 10 µs. The
//! probe's network digest must equal the timed pass's — finer stepping
//! may not change what the network did.

use super::{cluster_counts, Counts, PassFacts, PassOutput, Prepared};
use crate::spans::Spans;
use crate::stats::{grouped_quantile, poll_bin, ratio, tail_percentile};
use ampnet_core::{ClusterConfig, GlobalAddr, MultiSegment, ParallelMode};
use ampnet_sim::{Fnv64, SimDuration, SimRng, SimTime};
use ampnet_telemetry::MetricsSnapshot;

pub const SEGMENTS: usize = 16;
pub const NODES: usize = 32;
const ROUNDS: u64 = 40;
const SENDS_PER_ROUND: usize = 96;
const ROUND: SimDuration = SimDuration::from_micros(250);
/// Quiet time after the last round. 1 ms is not enough: through a quiet
/// phase the adaptive planner grows its slices, a crossing that still
/// has segments to traverse waits for a grown slice at each one, and on
/// some seeds a couple of the last round's 8-hop crossings were still
/// in flight. Quiet slices are elided, so the extra millisecond is
/// nearly free on the host clock.
const DRAIN: SimDuration = SimDuration::from_millis(2);
const BOOT: SimDuration = SimDuration::from_millis(2);
const BRIDGE_LATENCY: SimDuration = SimDuration::from_micros(5);
const PROBE_STEP: SimDuration = SimDuration::from_micros(10);
const PAYLOAD_SIZES: [usize; 3] = [8, 64, 256];

fn ga(segment: usize, node: usize) -> GlobalAddr {
    GlobalAddr {
        segment: segment as u8,
        node: node as u8,
    }
}

/// Construct the network, bridge it, and boot every ring.
fn build(seed: u64, mode: ParallelMode, telemetry: bool, spans: &mut Spans) -> MultiSegment {
    let mut net = MultiSegment::new(
        (0..SEGMENTS)
            .map(|s| {
                ClusterConfig::small(NODES)
                    .with_seed(seed.wrapping_mul(0x9E37_79B9).wrapping_add(s as u64))
            })
            .collect(),
    );
    for s in 0..SEGMENTS {
        net.add_bridge(ga(s, NODES - 1), ga((s + 1) % SEGMENTS, 0), BRIDGE_LATENCY);
    }
    net.enable_traces(8192);
    if telemetry {
        net.enable_telemetry(256);
    }
    net.set_parallel_mode(mode);
    spans.scope("boot", || {
        let t0 = net.segment(0).now() + BOOT;
        net.run_until(t0, BRIDGE_LATENCY);
    });
    net
}

/// Order-independent fingerprint of one popped datagram.
fn datagram_hash(at: GlobalAddr, src: GlobalAddr, payload: &[u8]) -> u64 {
    let mut f = Fnv64::new();
    f.fold(&[at.segment, at.node, src.segment, src.node])
        .fold(payload);
    f.finish()
}

/// The schedule and its accounting, shared by every driver.
struct Driver {
    net: MultiSegment,
    rng: SimRng,
    t0: SimTime,
    sent: u64,
    popped: u64,
    bad_payloads: u64,
    popped_hash: u64,
    /// Send → pop delays (ns); filled only when popping mid-run.
    latencies: Vec<u64>,
    /// Instant of the last pop that returned a datagram, when popping
    /// mid-run: the schedule's makespan.
    last_pop: Option<SimTime>,
}

impl Driver {
    fn new(net: MultiSegment, seed: u64) -> Self {
        let t0 = net.segment(0).now();
        Driver {
            net,
            rng: SimRng::new(seed).derive("multiseg/schedule"),
            t0,
            sent: 0,
            popped: 0,
            bad_payloads: 0,
            popped_hash: 0,
            latencies: vec![],
            last_pop: None,
        }
    }

    /// Inject one round: per segment 96 unicasts to seed-chosen peers
    /// and one crossing to a seed-chosen segment. Every payload starts
    /// with the simulated send instant.
    fn inject(&mut self, round: u64) {
        let now = self.t0 + ROUND.saturating_mul(round);
        let mut payload = [0xA5u8; 256];
        payload[..8].copy_from_slice(&now.0.to_be_bytes());
        for s in 0..SEGMENTS {
            for k in 0..SENDS_PER_ROUND {
                let src = k % NODES;
                let dst = (src + 1 + self.rng.below(NODES as u64 - 1) as usize) % NODES;
                let len = PAYLOAD_SIZES[(round as usize + s + k) % PAYLOAD_SIZES.len()];
                self.net
                    .send_global(ga(s, src), ga(s, dst), &payload[..len]);
                self.sent += 1;
            }
            let far = (s + 1 + self.rng.below(SEGMENTS as u64 - 1) as usize) % SEGMENTS;
            let len = PAYLOAD_SIZES[(round as usize + s) % PAYLOAD_SIZES.len()];
            self.net.send_global(ga(s, 1), ga(far, 2), &payload[..len]);
            self.sent += 1;
        }
    }

    fn advance_to(&mut self, t: SimTime) {
        self.net.run_until(t, BRIDGE_LATENCY);
    }

    /// Pop everything delivered so far; `now` (when given) times it.
    fn drain(&mut self, now: Option<SimTime>) {
        for s in 0..SEGMENTS {
            for node in 0..NODES {
                let at = ga(s, node);
                while let Some(d) = self.net.pop_global(at) {
                    self.popped += 1;
                    self.popped_hash = self
                        .popped_hash
                        .wrapping_add(datagram_hash(at, d.src, &d.payload));
                    if !PAYLOAD_SIZES.contains(&d.payload.len()) {
                        self.bad_payloads += 1;
                        continue;
                    }
                    let stamp =
                        u64::from_be_bytes(d.payload[..8].try_into().expect("length checked"));
                    self.last_pop = now.or(self.last_pop);
                    match now {
                        Some(now) if stamp <= now.0 => self.latencies.push(now.0 - stamp),
                        Some(_) => self.bad_payloads += 1,
                        None => {}
                    }
                }
            }
        }
    }

    fn end_of_pass(&self) -> SimTime {
        self.t0 + ROUND.saturating_mul(ROUNDS) + DRAIN
    }

    fn facts(&mut self) -> (PassFacts, Vec<String>) {
        let mut digest = Fnv64::new();
        digest
            .fold_u64(self.net.digest())
            .fold_u64(self.popped)
            .fold_u64(self.popped_hash);
        let lost = self.sent.saturating_sub(self.popped);
        let n = self.latencies.len() as u64;
        let tail_p = tail_percentile(n).unwrap_or(50);
        // A datagram popped at a probe step was delivered within the
        // step before it: interval-censored, hence grouped quantiles.
        self.latencies.sort_unstable();
        let delay = |q: f64| {
            grouped_quantile(
                n,
                |rank| self.latencies[rank as usize - 1],
                poll_bin(PROBE_STEP.as_nanos()),
                q,
            )
        };
        let facts = PassFacts {
            ops: self.popped,
            attempted: self.sent,
            failed: lost + self.net.unroutable + self.bad_payloads,
            // First send to last delivery where the driver can see it
            // (the probe), the whole pass where it cannot.
            sim_window_ns: (self.last_pop.unwrap_or(self.end_of_pass()) - self.t0).as_nanos(),
            sim_delay_typical_ns: delay(0.50),
            sim_delay_tail_ns: delay(tail_p as f64 / 100.0),
            tail_percentile: tail_p,
            delay_samples: n,
            digest: digest.finish(),
        };
        let mut errors = vec![];
        if self.popped != self.sent {
            errors.push(format!(
                "sent {} datagrams, popped {}",
                self.sent, self.popped
            ));
        }
        if self.net.unroutable != 0 {
            errors.push(format!("{} datagrams were unroutable", self.net.unroutable));
        }
        if self.bad_payloads != 0 {
            errors.push(format!(
                "{} popped payloads had a wrong length or a future stamp",
                self.bad_payloads
            ));
        }
        let drops: u64 = (0..SEGMENTS)
            .map(|s| self.net.segment(s as u8).total_drops())
            .sum();
        if drops != 0 {
            errors.push(format!("ring drops = {drops}"));
        }
        (facts, errors)
    }
}

struct Ready {
    driver: Driver,
    before: Option<MetricsSnapshot>,
}

fn setup_mode(seed: u64, traced: bool, mode: ParallelMode, spans: &mut Spans) -> Box<dyn Prepared> {
    let net = build(seed, mode, traced, spans);
    for s in 0..SEGMENTS {
        assert!(
            net.segment(s as u8).ring_up(),
            "segment {s} did not boot within {BOOT:?}"
        );
    }
    let before = traced.then(|| net.merged_metrics_snapshot());
    Box::new(Ready {
        driver: Driver::new(net, seed),
        before,
    })
}

pub fn setup(seed: u64, traced: bool, spans: &mut Spans) -> Box<dyn Prepared> {
    setup_mode(seed, traced, ParallelMode::Serial, spans)
}

/// The same pass with the shards advanced by two worker threads: the
/// `core.threads2_speedup` leg and the `Serial ≡ Threads(2)` check.
pub fn setup_threads2(seed: u64, spans: &mut Spans) -> Box<dyn Prepared> {
    setup_mode(seed, false, ParallelMode::Threads(2), spans)
}

impl Prepared for Ready {
    fn run(self: Box<Self>, spans: &mut Spans) -> PassOutput {
        let Ready { mut driver, before } = *self;
        let events_before = driver.net.events_processed();
        for round in 0..ROUNDS {
            spans.scope("inject", || driver.inject(round));
            let t = driver.t0 + ROUND.saturating_mul(round + 1);
            spans.scope("advance", || driver.advance_to(t));
        }
        let end = driver.end_of_pass();
        spans.scope("advance", || driver.advance_to(end));
        spans.scope("drain", || driver.drain(None));
        spans.enter("verify");
        let (facts, errors) = driver.facts();
        let events = driver.net.events_processed() - events_before;
        let mut counts = Counts::new();
        if let Some(before) = before {
            cluster_counts(
                &before,
                &driver.net.merged_metrics_snapshot(),
                facts.ops,
                &mut counts,
            );
            counts.insert("sim.events_per_op", ratio(events as f64, facts.ops as f64));
            let st = driver.net.slice_stats();
            let slices = st.slices as f64;
            counts.insert("core.pdes_slices", slices);
            counts.insert(
                "core.pdes_quiescent_ratio",
                ratio(st.quiescent_shard_slices as f64, slices * SEGMENTS as f64),
            );
            counts.insert(
                "core.pdes_barriers_elided_ratio",
                ratio(st.barriers_elided as f64, slices),
            );
            counts.insert(
                "core.pdes_exchanges_elided_ratio",
                ratio(
                    (st.drains_elided + st.deliveries_elided) as f64,
                    2.0 * slices,
                ),
            );
        }
        spans.exit();
        let notes = vec![format!(
            "{} datagrams popped of {} sent, {events} events ({:.1} per datagram), network digest {:#018x}",
            facts.ops,
            facts.attempted,
            ratio(events as f64, facts.ops as f64),
            driver.net.digest()
        )];
        PassOutput {
            facts,
            errors,
            counts,
            notes,
        }
    }
}

/// The latency probe: one pass stepped at 10 µs, popping after every
/// step. Returns facts whose delays are filled in and whose digest
/// must equal the timed pass's.
pub fn probe(seed: u64) -> PassOutput {
    let mut spans = Spans::new(false);
    let mut driver = Driver::new(build(seed, ParallelMode::Serial, false, &mut spans), seed);
    let steps_per_round = ROUND.as_nanos() / PROBE_STEP.as_nanos();
    let total_steps = (driver.end_of_pass() - driver.t0).as_nanos() / PROBE_STEP.as_nanos();
    for step in 0..total_steps {
        if step % steps_per_round == 0 && step / steps_per_round < ROUNDS {
            driver.inject(step / steps_per_round);
        }
        let t = driver.t0 + PROBE_STEP.saturating_mul(step + 1);
        driver.advance_to(t);
        driver.drain(Some(t));
    }
    let (facts, errors) = driver.facts();
    let notes = vec![format!(
        "datagram send → pop (probe stepped at {} µs): p50 {:.0} ns, p{} {:.0} ns over {} datagrams",
        PROBE_STEP.as_nanos() / 1000,
        facts.sim_delay_typical_ns,
        facts.tail_percentile,
        facts.sim_delay_tail_ns,
        facts.delay_samples
    )];
    PassOutput {
        facts,
        errors,
        counts: Counts::new(),
        notes,
    }
}
