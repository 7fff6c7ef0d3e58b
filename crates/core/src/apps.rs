//! In-cluster application drivers for the paper's availability claims.
//!
//! Three applications run *inside* the simulated cluster:
//!
//! * **Replicated counter + failover** (E10, slides 18–19): a control
//!   group runs a counter service; the leader increments a seqlock
//!   record in the network cache and heartbeats; when the leader's
//!   node is killed, survivors detect, wait the application-definable
//!   failover period, and the best-qualified survivor resumes from its
//!   local replica. The app verifies *zero committed-data loss*.
//! * **Network semaphore stress** (E6, slide 10): M contenders loop
//!   acquire → critical section → release; the cluster asserts mutual
//!   exclusion and measures acquire latency under contention.
//! * **Seqlock probe** (E5 + ablation A2, slide 9): one writer streams
//!   record generations; readers poll their local replicas with the
//!   two-counter protocol (no torn reads, some retries) or unguarded
//!   (torn reads appear).

use crate::cluster::{Cluster, Ev};
use crate::observe::ObservedEvent;
use ampnet_cache::seqlock_msg::{self, ReadOutcome, RecordLayout};
use ampnet_cache::{BackoffPolicy, CacheError, LockState, SemaphoreAction, SemaphoreAddr, SemaphoreClient};
use ampnet_dk::{ControlGroup, FailoverEngine, FailoverPolicy, FailoverReport, GroupError, GroupId};
use ampnet_sim::{Histogram, SimDuration, SimTime};
use std::collections::VecDeque;

/// Container for optional in-cluster applications.
#[derive(Default)]
pub(crate) struct AppState {
    pub(crate) counter: Option<CounterApp>,
    pub(crate) sem: Option<SemStress>,
    pub(crate) seq: Option<SeqProbe>,
}

// ===================== replicated counter / failover =====================

/// Configuration of the replicated-counter failover application.
#[derive(Debug, Clone)]
pub struct CounterAppConfig {
    /// (node, qualification) members of the control group.
    pub members: Vec<(u8, u32)>,
    /// Failover policy (detection, grace period, recovery rule).
    pub policy: FailoverPolicy,
    /// Where the counter record lives.
    pub counter_layout: RecordLayout,
    /// Where the leader heartbeat record lives.
    pub heartbeat_layout: RecordLayout,
    /// Stop issuing increments at this instant.
    pub deadline: SimTime,
}

/// Why [`Cluster::start_counter_app`] refused its configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CounterAppError {
    /// A member listed twice, or no member at all.
    Group(GroupError),
    /// A record outside its region, or not one 8-byte word; or a
    /// member the cluster was not built with, which holds no replica.
    Layout(CacheError),
}

/// Result of one completed failover inside the app.
#[derive(Debug, Clone, Copy)]
pub struct ResumeRecord {
    /// The member that took control.
    pub new_leader: u8,
    /// Counter value it resumed from (its local replica).
    pub resume_value: u64,
    /// Committed increments lost (paper: always 0).
    pub lost_committed: u64,
    /// The engine's timeline.
    pub report: FailoverReport,
}

/// Final report of the counter app.
#[derive(Debug, Clone)]
pub struct CounterAppReport {
    /// Increments issued by all leaders.
    pub increments_issued: u64,
    /// Highest counter value whose broadcast completed a full tour.
    pub committed: u64,
    /// Failovers that occurred.
    pub resumes: Vec<ResumeRecord>,
    /// Final counter value at each online member.
    pub final_values: Vec<(u8, u64)>,
}

pub(crate) struct CounterApp {
    cfg: CounterAppConfig,
    group: ControlGroup,
    engines: Vec<(u8, FailoverEngine)>,
    leader: u8,
    increments_issued: u64,
    committed: u64,
    /// Commit tags for the leader's in-flight broadcasts, FIFO with
    /// its `outstanding` queue: `Some(v)` marks the data packet of
    /// counter value `v`. This pairing assumes the leader node sends
    /// no other broadcast traffic while the app runs (true for the
    /// experiments; a production app would tag commits explicitly).
    leader_pending: VecDeque<Option<u64>>,
    resumes: Vec<ResumeRecord>,
}

impl Cluster {
    /// Start the replicated-counter failover application; a member list
    /// or record it cannot run with is refused, and nothing starts.
    pub fn start_counter_app(&mut self, cfg: CounterAppConfig) -> Result<(), CounterAppError> {
        let mut group = ControlGroup::new(GroupId(1));
        for &(node, q) in &cfg.members {
            group.join(node, q).map_err(CounterAppError::Group)?;
        }
        let leader = group.leader().ok_or(CounterAppError::Group(GroupError::Empty))?.node;
        for &(node, _) in &cfg.members {
            self.cache(node)
                .ok_or(CounterAppError::Layout(CacheError::UnknownNode(node)))?;
        }
        for layout in [cfg.counter_layout, cfg.heartbeat_layout] {
            layout.check(&self.nodes[leader as usize].cache).map_err(CounterAppError::Layout)?;
            // Each record holds one `u64`.
            if layout.data_len != 8 {
                let not_a_word = CacheError::RecordLength { data_len: layout.data_len, got: 8 };
                return Err(CounterAppError::Layout(not_a_word));
            }
        }
        let now = self.now();
        let engines = cfg
            .members
            .iter()
            .map(|&(node, _)| (node, FailoverEngine::new(cfg.policy, Some(leader), now)))
            .collect();
        let tick = cfg.policy.heartbeat_interval;
        let poll = cfg.policy.heartbeat_interval / 2;
        self.sim.schedule_in(tick, Ev::CounterTick);
        for &(node, _) in &cfg.members {
            self.sim.schedule_in(poll, Ev::FailoverPoll { node });
        }
        self.apps.counter = Some(CounterApp {
            cfg,
            group,
            engines,
            leader,
            increments_issued: 0,
            committed: 0,
            leader_pending: VecDeque::new(),
            resumes: vec![],
        });
        Ok(())
    }

    /// Collect the counter app's report (valid once traffic quiesced).
    pub fn counter_report(&self) -> Option<CounterAppReport> {
        let app = self.apps.counter.as_ref()?;
        let final_values = app
            .cfg
            .members
            .iter()
            .filter(|&&(node, _)| self.node_online(node))
            .map(|&(node, _)| (node, app.value_at(self, node)))
            .collect();
        Some(CounterAppReport {
            increments_issued: app.increments_issued,
            committed: app.committed,
            resumes: app.resumes.clone(),
            final_values,
        })
    }
}

impl CounterApp {
    /// The counter in `node`'s replica (its record was checked at start).
    fn value_at(&self, cluster: &Cluster, node: u8) -> u64 {
        let layout = self.cfg.counter_layout;
        cluster.nodes[node as usize]
            .cache
            .read_u64(layout.region, layout.data_offset())
            .unwrap_or(0)
    }

    /// `node`'s failover engine (members are distinct: checked at start).
    fn engine(&mut self, node: u8) -> Option<&mut FailoverEngine> {
        self.engines.iter_mut().find(|(n, _)| *n == node).map(|(_, e)| e)
    }
}

/// The app's full horizon: increments stop at the deadline, but
/// heartbeats and failover polling continue a little longer so a
/// failure near the deadline still resolves (and quiescence after the
/// deadline is not mistaken for a dead leader).
fn counter_horizon(app: &CounterApp) -> SimTime {
    app.cfg.deadline
        + app.cfg.policy.failover_period.saturating_mul(4)
        + app.cfg.policy.detection_latency().saturating_mul(4)
}

pub(crate) fn on_counter_tick(cluster: &mut Cluster) {
    let now = cluster.now();
    let Some(mut app) = cluster.apps.counter.take() else {
        return;
    };
    if now < counter_horizon(&app) {
        cluster
            .sim
            .schedule_in(app.cfg.policy.heartbeat_interval, Ev::CounterTick);
        let leader = app.leader;
        if cluster.node_online(leader) {
            if now < app.cfg.deadline {
                // Increment the replicated counter.
                let v = app.value_at(cluster, leader) + 1;
                app.increments_issued += 1;
                // record_write broadcasts 3 packets; tag the data one.
                // Both records were checked at start: none is refused.
                app.leader_pending.extend([None, Some(v), None]);
                let _ = cluster.record_write(leader, app.cfg.counter_layout, &v.to_be_bytes());
            }
            // Heartbeat record carries the tick time; heartbeats
            // continue through the horizon.
            app.leader_pending.extend([None, None, None]);
            let beat = now.as_nanos().to_be_bytes();
            let _ = cluster.record_write(leader, app.cfg.heartbeat_layout, &beat);
            // Feed the leader's own engine (it sees itself alive).
            if let Some(e) = app.engine(leader) {
                e.on_heartbeat(now, leader);
            }
        }
    }
    cluster.apps.counter = Some(app);
}

pub(crate) fn on_failover_poll(cluster: &mut Cluster, node: u8) {
    let now = cluster.now();
    let Some(mut app) = cluster.apps.counter.take() else {
        return;
    };
    if cluster.node_online(node) {
        let engine = app.engines.iter_mut().find(|(n, _)| *n == node);
        let polled = engine.and_then(|(_, e)| e.poll(now, &app.group));
        if let Some(report) = polled.filter(|r| r.new_leader == node) {
            cluster.observe(ObservedEvent::FailoverTakeover {
                node,
                group: app.group.id,
                outage: report.total_outage(),
            });
            app.leader = node;
            app.leader_pending.clear();
            // Recovery rule: resume from the local replica.
            let resume_value = app.value_at(cluster, node);
            let lost = app.committed.saturating_sub(resume_value);
            app.resumes.push(ResumeRecord {
                new_leader: node,
                resume_value,
                lost_committed: lost,
                report,
            });
            // Align every engine on the new leader.
            for (_, e) in &mut app.engines {
                e.on_heartbeat(now, node);
            }
        }
    }
    if now < counter_horizon(&app) {
        cluster.sim.schedule_in(
            app.cfg.policy.heartbeat_interval / 2,
            Ev::FailoverPoll { node },
        );
    }
    cluster.apps.counter = Some(app);
}

/// A cache update from `src` to `(region, offset)` landed at `node`.
pub(crate) fn on_cache_update(cluster: &mut Cluster, node: u8, src: u8, region: u8, offset: u32) {
    let now = cluster.now();
    let Some(app) = cluster.apps.counter.as_mut() else {
        return;
    };
    // Heartbeat delivery: the record's data cell landing at a member
    // refreshes its engine.
    let hb = app.cfg.heartbeat_layout;
    let is_heartbeat = region == hb.region && offset == hb.offset + 8 && src == app.leader;
    if let Some(e) = app.engine(node).filter(|_| is_heartbeat) {
        e.on_heartbeat(now, src);
    }
}

pub(crate) fn on_strip(cluster: &mut Cluster, node: u8) {
    let Some(app) = cluster.apps.counter.as_mut() else {
        return;
    };
    if node == app.leader {
        if let Some(Some(v)) = app.leader_pending.pop_front() {
            // The counter-value broadcast completed a full tour:
            // every online replica holds it. Committed.
            app.committed = app.committed.max(v);
        }
    }
}

pub(crate) fn on_node_death(cluster: &mut Cluster, node: u8) {
    let now = cluster.now();
    if let Some(app) = cluster.apps.counter.as_mut() {
        app.group.mark_offline(node);
        if node == app.leader {
            app.leader_pending.clear();
            for (_, e) in &mut app.engines {
                e.leader_died(now);
            }
        }
    }
    if let Some(sem) = cluster.apps.sem.as_mut() {
        if sem.holder == Some(node) {
            sem.holder = None; // lock dies with the holder's lease
        }
    }
}

pub(crate) fn on_node_online(cluster: &mut Cluster, node: u8) {
    if let Some(app) = cluster.apps.counter.as_mut() {
        app.group.mark_online(node);
    }
}

// ===================== network semaphore stress =====================

/// Configuration of the semaphore stress application.
#[derive(Debug, Clone)]
pub struct SemStressConfig {
    /// Semaphore location (home node, region, offset).
    pub addr: SemaphoreAddr,
    /// Contending nodes.
    pub contenders: Vec<u8>,
    /// Acquire/release rounds per contender.
    pub rounds: u32,
    /// Simulated critical-section duration.
    pub crit: SimDuration,
    /// Client backoff policy.
    pub backoff: BackoffPolicy,
}

/// Report of the semaphore stress run.
#[derive(Debug, Clone)]
pub struct SemStressReport {
    /// Total successful acquisitions.
    pub acquisitions: u64,
    /// Mutual-exclusion violations (paper: always 0).
    pub violations: u64,
    /// Acquire latency (request → held), ns.
    pub acquire_latency: Histogram,
    /// TestAndSet attempts that found the lock held.
    pub contentions: u64,
    /// Rounds still unfinished when the report was taken.
    pub unfinished: u64,
}

pub(crate) struct SemStress {
    cfg: SemStressConfig,
    remaining: Vec<(u8, u32)>,
    pub(crate) holder: Option<u8>,
    violations: u64,
    acquisitions: u64,
    acquire_latency: Histogram,
}

impl Cluster {
    /// Start the semaphore stress application. Nothing starts when a
    /// contender is a node the cluster was not built with.
    pub fn start_sem_stress(&mut self, cfg: SemStressConfig) {
        if cfg.contenders.iter().any(|&c| self.node(c).is_none()) {
            return;
        }
        let now = self.now();
        let mut remaining = vec![];
        for &c in &cfg.contenders {
            let mut client = SemaphoreClient::new(c, cfg.addr, cfg.backoff);
            let action = client.acquire(now);
            self.nodes[c as usize].sem = Some(client);
            if let SemaphoreAction::Send(p) = action {
                self.sem_send(c, p);
            }
            remaining.push((c, cfg.rounds));
        }
        self.apps.sem = Some(SemStress {
            cfg,
            remaining,
            holder: None,
            violations: 0,
            acquisitions: 0,
            acquire_latency: Histogram::new(),
        });
    }

    /// Collect the semaphore stress report.
    pub fn sem_report(&self) -> Option<SemStressReport> {
        let app = self.apps.sem.as_ref()?;
        let contentions = app
            .cfg
            .contenders
            .iter()
            .filter_map(|&c| self.nodes[c as usize].sem.as_ref())
            .map(|s| s.contentions())
            .sum();
        Some(SemStressReport {
            acquisitions: app.acquisitions,
            violations: app.violations,
            acquire_latency: app.acquire_latency.clone(),
            contentions,
            unfinished: app.remaining.iter().map(|&(_, r)| r as u64).sum(),
        })
    }
}

/// Called when a node's semaphore client reached a stable state after
/// a response (Held or Idle).
pub(crate) fn on_sem_transition(cluster: &mut Cluster, node: u8) {
    let now = cluster.now();
    let state = cluster.nodes[node as usize]
        .sem
        .as_ref()
        .map(|s| s.state());
    let Some(mut app) = cluster.apps.sem.take() else {
        return;
    };
    match state {
        Some(LockState::Held) => {
            if let Some(other) = app.holder {
                if other != node {
                    app.violations += 1;
                }
            }
            app.holder = Some(node);
            app.acquisitions += 1;
            if let Some(t0) = cluster.nodes[node as usize]
                .sem
                .as_ref()
                .and_then(|s| s.acquire_started())
            {
                let latency = (now - t0).as_nanos();
                app.acquire_latency.record(latency);
                cluster
                    .tel
                    .sem_acquired(now, node, app.cfg.addr.offset, latency);
            }
            cluster
                .sim
                .schedule_in(app.cfg.crit, Ev::SemCritDone { node });
        }
        Some(LockState::Idle) => {
            // Release completed (the holder flag was already cleared
            // when the critical section ended).
            for (c, r) in &mut app.remaining {
                if *c == node && *r > 0 {
                    *r -= 1;
                    if *r > 0 {
                        if let Some(sem) = cluster.nodes[node as usize].sem.as_mut() {
                            let action = sem.acquire(now);
                            if let SemaphoreAction::Send(p) = action {
                                cluster.sem_send(node, p);
                            }
                        }
                    }
                }
            }
        }
        _ => {}
    }
    cluster.apps.sem = Some(app);
}

pub(crate) fn on_crit_done(cluster: &mut Cluster, node: u8) {
    let Some(app) = cluster.apps.sem.as_mut() else {
        return;
    };
    // The critical section ends when the release is initiated; the
    // Clear still has to reach the home node, but the holder no
    // longer touches the protected state.
    if app.holder == Some(node) {
        app.holder = None;
    }
    if let Some(sem) = cluster.nodes[node as usize].sem.as_mut() {
        if sem.state() == LockState::Held {
            let action = sem.release();
            if let SemaphoreAction::Send(p) = action {
                cluster.sem_send(node, p);
            }
        }
    }
}

// ===================== seqlock probe =====================

/// Configuration of the seqlock consistency probe.
#[derive(Debug, Clone)]
pub struct SeqProbeConfig {
    /// Writing node.
    pub writer: u8,
    /// Reading nodes (poll their own replicas).
    pub readers: Vec<u8>,
    /// Record under test.
    pub layout: RecordLayout,
    /// Writer period.
    pub write_interval: SimDuration,
    /// Reader poll period.
    pub read_interval: SimDuration,
    /// `true` = slide-9 protocol; `false` = ablation A2 (unguarded).
    pub guarded: bool,
    /// Stop at this instant.
    pub deadline: SimTime,
}

/// Report of the seqlock probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqProbeReport {
    /// Generations written.
    pub writes: u64,
    /// Consistent snapshots obtained.
    pub reads_ok: u64,
    /// Read attempts that saw a write in progress (retried).
    pub reads_busy: u64,
    /// Torn snapshots returned to the application
    /// (guarded: must be 0; unguarded: the ablation's point).
    pub torn: u64,
}

pub(crate) struct SeqProbe {
    cfg: SeqProbeConfig,
    generation: u64,
    report: SeqProbeReport,
}

impl Cluster {
    /// Start the seqlock probe; a record outside its region, or a
    /// writer or reader the cluster was not built with, is refused.
    pub fn start_seqlock_probe(&mut self, cfg: SeqProbeConfig) -> Result<(), CacheError> {
        for &node in std::iter::once(&cfg.writer).chain(&cfg.readers) {
            cfg.layout
                .check(self.cache(node).ok_or(CacheError::UnknownNode(node))?)?;
        }
        self.sim.schedule_in(cfg.write_interval, Ev::SeqWriterTick);
        for &r in &cfg.readers {
            self.sim
                .schedule_in(cfg.read_interval, Ev::SeqReaderTick { node: r });
        }
        self.apps.seq = Some(SeqProbe {
            cfg,
            generation: 0,
            report: SeqProbeReport::default(),
        });
        Ok(())
    }

    /// Collect the probe report.
    pub fn seq_report(&self) -> Option<SeqProbeReport> {
        self.apps.seq.as_ref().map(|s| s.report)
    }
}

pub(crate) fn on_seq_writer_tick(cluster: &mut Cluster) {
    let now = cluster.now();
    let Some(mut app) = cluster.apps.seq.take() else {
        return;
    };
    if now < app.cfg.deadline {
        app.generation += 1;
        app.report.writes += 1;
        let pattern = (app.generation % 251 + 1) as u8;
        let data = vec![pattern; app.cfg.layout.data_len as usize];
        // The record was checked at start and `data` fills it.
        let _ = cluster.record_write(app.cfg.writer, app.cfg.layout, &data);
        cluster
            .sim
            .schedule_in(app.cfg.write_interval, Ev::SeqWriterTick);
    }
    cluster.apps.seq = Some(app);
}

/// Whether a read record is one write's: the writer fills a record
/// with a single pattern byte, so a torn read mixes two. Every byte is
/// compared with the first, without an early exit, so the compiler
/// compares a record a vector at a time. Empty and one-byte records
/// are uniform.
fn uniform(data: &[u8]) -> bool {
    data.first()
        .is_none_or(|first| data.iter().fold(true, |same, b| same & (b == first)))
}

pub(crate) fn on_seq_reader_tick(cluster: &mut Cluster, node: u8) {
    let now = cluster.now();
    let Some(mut app) = cluster.apps.seq.take() else {
        return;
    };
    if now < app.cfg.deadline {
        // The reader and its record were checked at start, so no read
        // is refused.
        let replica = &cluster.nodes[node as usize].cache;
        let read = if app.cfg.guarded {
            seqlock_msg::try_read(replica, app.cfg.layout)
        } else {
            seqlock_msg::read_unguarded(replica, app.cfg.layout).map(|data| ReadOutcome::Ok {
                data: data.into(),
                generation: 0,
            })
        };
        match read {
            Ok(ReadOutcome::Ok { data, .. }) => {
                app.report.reads_ok += 1;
                if !uniform(&data) {
                    app.report.torn += 1;
                }
            }
            Ok(ReadOutcome::Busy) => {
                app.report.reads_busy += 1;
                cluster.tel.seqlock_busy(
                    now,
                    node,
                    app.cfg.layout.region,
                    app.cfg.layout.offset,
                );
            }
            Err(_) => {}
        }
        cluster
            .sim
            .schedule_in(app.cfg.read_interval, Ev::SeqReaderTick { node });
    }
    cluster.apps.seq = Some(app);
}

#[cfg(test)]
mod tests {
    use super::uniform;

    #[test]
    fn a_record_is_uniform_when_every_byte_equals_the_first() {
        assert!(uniform(&[]));
        assert!(uniform(&[7]));
        assert!(uniform(&[0xA5; 64]));
        let mut torn = [0xA5; 64];
        torn[63] = 0xA6;
        assert!(!uniform(&torn));
    }
}
