//! The run engine: boots the cluster, schedules the fault storm,
//! drives traffic step by step, drains the delivery ledger and
//! evaluates every invariant after every step.

use crate::harness::Harness;
use crate::invariant::Phase;
use crate::scenario::{FaultEvent, FaultOp, Scenario, Traffic};
use ampnet_core::{
    BackoffPolicy, Cluster, Component, CounterAppConfig, Features, JoinRequest, NodeId,
    RecordLayout, RosterReason, SemStressConfig, SeqProbeConfig, SimDuration, SimTime, SwitchId,
    Version,
};

/// Cache offsets used by the engine's generators, chosen to coexist
/// in region 0: seqlock probe at 1024, semaphore at 2048, counter app
/// records at 4096/4160, write-storm slots from 8192.
const COUNTER_OFFSET: u32 = 4096;
const HEARTBEAT_OFFSET: u32 = 4160;
const STORM_BASE: u32 = 8192;
const STORM_STRIDE: u32 = 64;

/// Flight-recorder ring depth for chaos runs: enough to hold the
/// plane events surrounding the last few fault reactions.
const FLIGHT_CAPACITY: usize = 1024;

/// One invariant violation. Only the first violation of each
/// invariant is recorded per run.
#[derive(Debug, Clone)]
pub struct Violation {
    /// [`crate::Invariant::name`] of the tripped checker.
    pub invariant: &'static str,
    /// Simulated instant of the check that tripped.
    pub at: SimTime,
    /// Step index (equals the step count for end-of-run checks).
    pub step: u32,
    /// Human-readable detail.
    pub detail: String,
}

/// Result of one scenario run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Seed the cluster ran under.
    pub seed: u64,
    /// Invariant violations, in trip order (empty = pass).
    pub violations: Vec<Violation>,
    /// Tagged messages injected.
    pub sent: u64,
    /// Tagged messages delivered exactly once to the right node.
    pub delivered: u64,
    /// Tagged messages excused by an endpoint crash.
    pub doomed: u64,
    /// Roster episodes (boot included) over the run.
    pub roster_episodes: usize,
    /// Simulated time the ring spent reconverging, summed over every
    /// post-boot roster episode (failure instant → ring live), ns.
    pub reconvergence_ns: u64,
    /// Worst single post-boot roster episode (ns) — the failover
    /// latency an application rides through.
    pub failover_ns: u64,
    /// Final roster epoch.
    pub final_epoch: u64,
    /// Simulated end of run.
    pub final_time: SimTime,
    /// Deterministic FNV digest of the full milestone trace — equal
    /// digests mean bit-identical runs.
    pub trace_digest: u64,
    /// Rendered milestone trace; populated only for failing runs.
    pub trace_dump: String,
    /// Flight-recorder timeline (the last plane events before the
    /// first violation); populated only for failing runs.
    pub flight_dump: String,
}

impl RunReport {
    /// `true` when no invariant tripped.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line accounting plus one line per violation.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "chaos run seed={}: {} sent, {} delivered, {} doomed, {} roster episode(s), \
             epoch {}, digest {:#018x}",
            self.seed,
            self.sent,
            self.delivered,
            self.doomed,
            self.roster_episodes,
            self.final_epoch,
            self.trace_digest,
        );
        for v in &self.violations {
            s.push_str(&format!(
                "\nVIOLATION [step {} @ {}ns] {}: {}",
                v.step, v.at.0, v.invariant, v.detail
            ));
        }
        s
    }
}

impl Scenario {
    /// Execute the scenario once. Deterministic: the same scenario and
    /// config seed always produce the same [`RunReport`] (and the same
    /// trace digest).
    pub fn run(&self) -> RunReport {
        let mut cluster = Cluster::new(self.cfg.clone());
        cluster.enable_trace(self.trace_capacity);
        cluster.enable_telemetry(FLIGHT_CAPACITY);
        let mut h = Harness::new(cluster, self.invariants.clone());
        h.run_for(self.warmup);

        // Apps first, faults second: same-instant events keep this
        // queue order.
        let active = self.step.saturating_mul(self.steps as u64);
        let deadline = h.cluster.now() + active;
        start_apps(&mut h, self, deadline);
        h.apply(self.faults());

        for step in 0..self.steps {
            emit_traffic(&mut h, self, step);
            h.run_for(self.step);
            h.drain();
            h.doom_elapsed();
            h.check(Phase::Step, step);
        }

        h.run_for(self.settle);
        h.drain();
        h.doom_elapsed();
        h.check(Phase::End, self.steps);

        let (trace_dump, flight_dump) = if h.violations().is_empty() {
            (String::new(), String::new())
        } else {
            (h.cluster.trace().dump(), h.cluster.flight_dump())
        };
        let (reconvergence_ns, failover_ns) = roster_latencies(&h.cluster);
        RunReport {
            seed: self.cfg.seed,
            violations: h.violations().to_vec(),
            sent: h.ledger.sent(),
            delivered: h.ledger.delivered,
            doomed: h.ledger.doomed_total,
            roster_episodes: h.cluster.roster_history().len(),
            reconvergence_ns,
            failover_ns,
            final_epoch: h.cluster.epoch(),
            final_time: h.cluster.now(),
            trace_digest: h.cluster.trace().digest(),
            trace_dump,
            flight_dump,
        }
    }
}

/// Start the stateful traffic applications, handing the invariants
/// the failover policy when a counter app is among them.
fn start_apps(h: &mut Harness, sc: &Scenario, deadline: SimTime) {
    for t in &sc.traffic {
        let cluster = &mut h.cluster;
        let refused = match t {
            Traffic::SemContention { addr, contenders, rounds } => {
                cluster.start_sem_stress(SemStressConfig {
                    addr: *addr,
                    contenders: contenders.clone(),
                    rounds: *rounds,
                    crit: SimDuration::from_micros(30),
                    backoff: BackoffPolicy::default(),
                });
                None
            }
            Traffic::SeqlockProbe { writer, readers, layout } => {
                let started = cluster.start_seqlock_probe(SeqProbeConfig {
                    writer: *writer,
                    readers: readers.clone(),
                    layout: *layout,
                    write_interval: SimDuration::from_micros(20),
                    read_interval: SimDuration::from_micros(7),
                    guarded: true,
                    deadline,
                });
                started.err().map(|e| format!("seqlock probe refused: {e}"))
            }
            Traffic::CounterFailover { members, policy: p, region } => {
                h.policy = Some(*p);
                let word = |offset| RecordLayout { region: *region, offset, data_len: 8 };
                let started = cluster.start_counter_app(CounterAppConfig {
                    members: members.clone(),
                    policy: *p,
                    counter_layout: word(COUNTER_OFFSET),
                    heartbeat_layout: word(HEARTBEAT_OFFSET),
                    deadline,
                });
                started.err().map(|e| format!("counter app refused: {e:?}"))
            }
            Traffic::AllToAll { .. } | Traffic::PingPong { .. } | Traffic::CacheStorm { .. } => None,
        };
        if let Some(detail) = refused {
            h.refused(0, detail);
        }
    }
}

/// Schedule a fault list against a cluster, offsets relative to *now*;
/// returns node-crash instants in time order so the caller can doom a
/// crashed endpoint's pending traffic in its [`Ledger`](crate::Ledger).
///
/// This is the scenario engine's own scheduling path, exposed so other
/// drivers (the `ampnet-load` workload engine) compose the same
/// declarative fault schedules with their own traffic loops.
pub fn apply_fault_schedule(cluster: &mut Cluster, faults: &[FaultEvent]) -> Vec<(SimTime, u8)> {
    let t0 = cluster.now();
    let fiber = |n, s| Some(Component::Link(NodeId(n), SwitchId(s)));
    let switch = |s| Some(Component::Switch(SwitchId(s)));
    let mut crashes = vec![];
    for f in faults {
        let at = t0 + f.at;
        // Plant faults: (fails?, component); `None` when a generic
        // index names nothing on this family.
        let (fails, component) = match f.op {
            FaultOp::CrashNode(n) => {
                crashes.push((at, n));
                (true, Some(Component::Node(NodeId(n))))
            }
            FaultOp::FailSwitch(s) => (true, switch(s)),
            FaultOp::RepairSwitch(s) => (false, switch(s)),
            FaultOp::CutFiber(n, s) => (true, fiber(n, s)),
            FaultOp::SpliceFiber(n, s) => (false, fiber(n, s)),
            FaultOp::CutLinkIndex(k) => (true, resolve_link(cluster, k)),
            FaultOp::SpliceLinkIndex(k) => (false, resolve_link(cluster, k)),
            FaultOp::FailElement(k) => (true, resolve_element(cluster, k)),
            FaultOp::RepairElement(k) => (false, resolve_element(cluster, k)),
            FaultOp::Rejoin(n) => {
                let req = JoinRequest {
                    node: n,
                    version: Version::new(1, 0, 0),
                    features: Features::NONE,
                    diagnostics_pass: true,
                };
                cluster.schedule_join(at, n, req);
                continue;
            }
            FaultOp::ErrorBurst { node, seed, errors } => {
                // Addressed at the victim's PHY plane: the NodeStack's
                // 8b/10b checker decides whether this escalates.
                cluster.schedule_error_burst(at, node, seed, errors);
                continue;
            }
        };
        match component {
            Some(c) if fails => cluster.schedule_failure(at, c),
            Some(c) => cluster.schedule_repair(at, c),
            None => {}
        }
    }
    crashes
}

/// (total, worst) post-boot recovery time in nanoseconds over the
/// run's roster episodes. Boot is excluded — it is bring-up, not
/// reconvergence around damage.
fn roster_latencies(cluster: &Cluster) -> (u64, u64) {
    let mut total = 0u64;
    let mut worst = 0u64;
    for ev in cluster.roster_history() {
        if matches!(ev.reason, RosterReason::Boot) {
            continue;
        }
        let ns = ev.outcome.recovery_time().as_nanos();
        total += ns;
        worst = worst.max(ns);
    }
    (total, worst)
}

/// The `k mod L`-th fiber of the plant's deterministic link
/// enumeration (port fibers on switched families, trunks on a torus);
/// `None` only for a degenerate plant with no fibers at all.
fn resolve_link(cluster: &Cluster, k: u32) -> Option<Component> {
    let links = cluster.topology().link_components();
    (!links.is_empty()).then(|| links[k as usize % links.len()])
}

/// The `k mod S`-th switching element; `None` on element-free
/// families (a torus has only trunks), making element faults a no-op
/// there by design.
fn resolve_element(cluster: &Cluster, k: u32) -> Option<Component> {
    let s = cluster.topology().n_switches();
    (s > 0).then(|| Component::Switch(SwitchId((k as usize % s) as u8)))
}

/// Inject one step of stateless traffic. Endpoints that are offline
/// at emit time are skipped — their guarantees died with them.
fn emit_traffic(h: &mut Harness, sc: &Scenario, step: u32) {
    let Harness { cluster, ledger, .. } = h;
    let mut refused = None;
    let n = sc.cfg.n_nodes as u8;
    let mut send = |cluster: &mut Cluster, src: u8, dst: u8, stream: u8| {
        if cluster.node_online(src) && cluster.node_online(dst) {
            let payload = ledger.send(src, dst, cluster.now());
            cluster.send_message(src, dst, stream, &payload);
        }
    };
    for t in &sc.traffic {
        match t {
            Traffic::AllToAll { stream } => {
                for src in 0..n {
                    for dst in (0..n).filter(|&dst| dst != src) {
                        send(cluster, src, dst, *stream);
                    }
                }
            }
            Traffic::PingPong { a, b, stream } => {
                let (src, dst) = if step.is_multiple_of(2) { (*a, *b) } else { (*b, *a) };
                send(cluster, src, dst, *stream);
            }
            Traffic::CacheStorm { region, bytes } => {
                for node in 0..n {
                    if !cluster.node_online(node) {
                        continue;
                    }
                    let mut data = vec![0u8; *bytes as usize];
                    for (i, b) in data.iter_mut().enumerate() {
                        *b = (step as u8)
                            .wrapping_mul(31)
                            .wrapping_add(node)
                            .wrapping_add(i as u8);
                    }
                    let offset = STORM_BASE + node as u32 * STORM_STRIDE;
                    if let Err(e) = cluster.cache_write(node, *region, offset, &data) {
                        refused.get_or_insert(format!("cache storm write at {node} refused: {e}"));
                    }
                }
            }
            Traffic::SemContention { .. }
            | Traffic::SeqlockProbe { .. }
            | Traffic::CounterFailover { .. } => {} // self-driving apps
        }
    }
    if let Some(detail) = refused {
        h.refused(step, detail);
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::{FaultOp, Scenario, Traffic};
    use ampnet_core::{ClusterConfig, SimDuration};

    #[test]
    fn quiet_scenario_passes_standard_invariants() {
        let report = Scenario::builder(ClusterConfig::small(4).with_seed(11))
            .traffic(Traffic::ping_pong(0, 2))
            .steps(6)
            .standard_invariants()
            .build()
            .run();
        assert!(report.ok(), "{}", report.summary());
        assert_eq!(report.sent, 6);
        assert_eq!(report.delivered, 6);
        assert_eq!(report.doomed, 0);
        assert!(report.trace_dump.is_empty(), "dump only on failure");
        assert!(report.flight_dump.is_empty(), "flight dump only on failure");
    }

    #[test]
    fn identical_scenarios_produce_identical_digests() {
        let build = || {
            Scenario::builder(ClusterConfig::small(6).with_seed(99))
                .traffic(Traffic::all_to_all())
                .fault_in(SimDuration::from_millis(12), FaultOp::CrashNode(2))
                .standard_invariants()
                .build()
        };
        let a = build().run();
        let b = build().run();
        assert!(a.ok(), "{}", a.summary());
        assert_eq!(a.trace_digest, b.trace_digest);
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.final_time, b.final_time);
    }

    #[test]
    fn crash_dooms_only_victim_traffic() {
        // The crash lands one microsecond after a step-emission
        // boundary (offset 10 ms = step 2 with 5 ms steps), so the
        // messages injected at that instant are still in flight —
        // mid-serialization on the ring — when the node dies.
        let report = Scenario::builder(ClusterConfig::small(5).with_seed(3))
            .traffic(Traffic::all_to_all())
            .fault_in(SimDuration::from_micros(10_001), FaultOp::CrashNode(4))
            .standard_invariants()
            .build()
            .run();
        assert!(report.ok(), "{}", report.summary());
        // Everything not touching node 4 was delivered.
        assert_eq!(report.sent, report.delivered + report.doomed);
        assert!(report.doomed > 0, "the victim had traffic in flight");
    }

    /// Region 0 is too small for the storm's slots (from 8192) and the
    /// probe's record (at 1024): the cluster refuses both, and the run
    /// reports it once instead of passing on traffic it never carried.
    /// An empty semaphore set contends for nothing.
    #[test]
    fn traffic_the_cluster_refuses_fails_the_run() {
        let report = Scenario::builder(ClusterConfig::small(4).with_regions(vec![(0, 1024)]))
            .traffic(Traffic::cache_storm())
            .traffic(Traffic::seqlock(0, vec![1]))
            .traffic(Traffic::semaphores(vec![], 3))
            .steps(3)
            .standard_invariants()
            .build()
            .run();
        let refused: Vec<_> = report
            .violations
            .iter()
            .map(|v| (v.invariant, v.step))
            .collect();
        assert_eq!(refused, [("traffic-accepted", 0)], "{}", report.summary());
        assert!(report.violations[0]
            .detail
            .contains("seqlock probe refused"));
    }

    #[test]
    fn violation_report_carries_trace_dump() {
        struct AlwaysFails;
        impl crate::invariant::Invariant for AlwaysFails {
            fn name(&self) -> &'static str {
                "always-fails"
            }
            fn check(&self, _: &crate::invariant::CheckCtx<'_>) -> Result<(), String> {
                Err("synthetic".into())
            }
        }
        let report = Scenario::builder(ClusterConfig::small(4).with_seed(1))
            .steps(2)
            .invariant(AlwaysFails)
            .build()
            .run();
        assert!(!report.ok());
        // Tripped once at step 0, then deduplicated.
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].invariant, "always-fails");
        assert!(!report.trace_dump.is_empty(), "failing runs dump the trace");
        assert!(
            report.flight_dump.starts_with("flight recorder:"),
            "failing runs attach the flight-recorder timeline: {:?}",
            report.flight_dump
        );
        assert!(report.summary().contains("VIOLATION"));
    }
}
