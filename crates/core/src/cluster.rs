//! The AmpNet cluster: every subsystem wired into one deterministic
//! discrete-event simulation.
//!
//! A [`Cluster`] owns the physical plant (`ampnet-topo`), one node
//! context per host (layered ring data-plane, network cache replica,
//! message endpoints, semaphore client, DK lifecycle) and the global
//! event loop. The per-node data-plane is an `ampnet-ring`
//! [`NodeStack`] (SerialPhy → RegisterMac) fed from a
//! cluster-owned [`FrameArena`]: each packet is stored once at its
//! source, hops move pooled frame handles and read their headers in
//! place, and a delivered frame is copied out once, straight into its
//! handler (nothing is parsed or queued in between). Failures injected into
//! the plant trigger detection and rostering exactly as slides 16/18
//! describe (see `membership.rs`); while the ring heals, traffic
//! pauses, and sources replay their unacknowledged packets afterwards
//! (slide 18's smart data recovery). The hop-by-hop machinery lives in
//! `transport.rs`.

use crate::config::ClusterConfig;
use crate::observe::{ObservedEvent, Trace};
use crate::telemetry::CoreTelemetry;
use ampnet_cache::seqlock_msg::{self, ReadOutcome, RecordLayout};
use ampnet_cache::{NetworkCache, SemaphoreClient};
use ampnet_dk::{AssimilationFailure, JoinRequest};
use ampnet_packet::build::{self, InterruptPayload};
use ampnet_packet::{FrameArena, FrameRef, MicroPacket, PacketError, FIXED_PAYLOAD};
use ampnet_ring::{NodeStack, RegisterMac, RingMeters, SerialPhy};
use ampnet_roster::{initial_rostering, RosterOutcome};
use ampnet_services::msg::{Datagram, MsgRx, MsgTx};
use ampnet_services::socket::{AmpIp, Received, SockAddr, SocketError};
use ampnet_services::files::{FileError, FileStore};
use ampnet_services::threads::{TaskError, TaskKind, TaskTable};
use ampnet_sim::{Sim, SimDuration, SimTime, TieClass};
use ampnet_telemetry::{MetricsSnapshot, Telemetry};
use ampnet_topo::montecarlo::Component;
use ampnet_topo::{NodeId, Plant, PlantRing};
use std::collections::VecDeque;

/// Why a roster episode ran.
#[derive(Debug, Clone, PartialEq)]
pub enum RosterReason {
    /// Cluster bring-up.
    Boot,
    /// A component failed.
    Failure(Component),
    /// A node (re-)assimilated.
    Join(NodeId),
    /// A switch or fiber was repaired, enlarging the possible ring.
    Repair(Component),
}

/// One completed roster episode.
#[derive(Debug, Clone)]
pub struct RosterEvent {
    /// Trigger.
    pub reason: RosterReason,
    /// Full protocol accounting.
    pub outcome: RosterOutcome,
}

/// A delivered Data cell: slide 4's fixed 3-word MicroPacket as its
/// receiver sees it. A plain 10-byte value, queued per node apart from
/// the reassembled datagrams and read with [`Cluster::pop_cell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataCell {
    /// Sending node.
    pub src: u8,
    /// Stream it arrived on (the control word's tag).
    pub stream: u8,
    /// The cell's payload.
    pub payload: [u8; FIXED_PAYLOAD],
}

/// Per-node composite state.
pub(crate) struct NodeCtx {
    /// The layered data-plane (PHY / insertion MAC / host delivery).
    pub(crate) stack: NodeStack,
    pub(crate) cache: NetworkCache,
    pub(crate) online: bool,
    pub(crate) msg_tx: MsgTx,
    pub(crate) msg_rx: MsgRx,
    pub(crate) inbox: VecDeque<Datagram>,
    pub(crate) cells: VecDeque<DataCell>,
    pub(crate) interrupts: VecDeque<InterruptPayload>,
    pub(crate) sem: Option<SemaphoreClient>,
    /// Collective rank engine (enabled by `enable_collectives`).
    pub(crate) rank: Option<ampnet_services::mpi::Rank>,
    /// AmpIP datagram socket endpoint.
    pub(crate) ampip: AmpIp,
    /// Monotonic counter of semaphore sends; stale retransmission
    /// timers compare against it.
    pub(crate) sem_seq: u64,
    /// Own broadcasts inserted and not yet stripped, with insertion
    /// time (replayed after a roster episode — slide 18 smart data
    /// recovery). FIFO: strips acknowledge the oldest entry, so
    /// retirement is a `pop_front`.
    pub(crate) outstanding: VecDeque<(SimTime, MicroPacket)>,
    /// Own unicasts in flight, with insertion time (replayed likewise;
    /// entries expire after two quiet tours). Insertion times are
    /// monotone, so expiry pops an aged prefix off the front.
    pub(crate) outstanding_unicast: VecDeque<(SimTime, MicroPacket)>,
}

/// One node's output port. A transmission ends with an `Ev::TxDone`
/// at `free_at`, but the event is pushed only once something waits for
/// the port (see `transport.rs`). The port is busy while that event's
/// key lies after the event in hand.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TxPort {
    /// Instant the frame on the wire has been clocked out.
    pub(crate) free_at: SimTime,
    /// The `TxDone` at `free_at` has been pushed (or the port never
    /// sent).
    pub(crate) requested: bool,
}

impl TxPort {
    /// A port that has not sent since the ring came up.
    pub(crate) const IDLE: TxPort = TxPort {
        free_at: SimTime::ZERO,
        requested: true,
    };
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    Arrival { epoch: u64, node: u8, frame: FrameRef },
    TxDone { epoch: u64, node: u8 },
    Retry { node: u8 },
    Fail(Component),
    Repair(Component),
    RingRestored { epoch: u64 },
    Join { node: u8, req: JoinRequest },
    NodeOnline { node: u8 },
    // Application events (see apps.rs).
    SemPoll { node: u8 },
    SemCritDone { node: u8 },
    /// Retransmission check for an in-flight D64 request.
    SemTimeout { node: u8, seq: u64 },
    CounterTick,
    FailoverPoll { node: u8 },
    SeqWriterTick,
    SeqReaderTick { node: u8 },
    /// A thread doorbell raced its task-entry DMA; re-check shortly.
    ThreadRetry { node: u8, slot: u32, tries: u8 },
    /// Background diagnostic sweep over spare components.
    DiagSweep,
    /// A phy-level bit-error burst on a node's receive fiber.
    ErrorBurst { node: u8, seed: u64, errors: u32 },
}

/// Same-instant order by rule: `rank·256 + node`. At one node and
/// instant a `Retry` pops before an `Arrival`, and both before the
/// port's `TxDone`: the transit frame enters the register before the
/// port frees, so transit goes first and the node inserts only into an
/// empty register (slide 8). Every other event ranks below them, under
/// its node, or node 0 when it has none.
impl TieClass for Ev {
    fn tie_class(&self) -> u16 {
        let (rank, node) = match *self {
            Ev::Retry { node } => (1, node),
            Ev::Arrival { node, .. } => (2, node),
            Ev::TxDone { node, .. } => (3, node),
            Ev::Join { node, .. } | Ev::NodeOnline { node } | Ev::SemPoll { node } => (0, node),
            Ev::SemCritDone { node } | Ev::SemTimeout { node, .. } => (0, node),
            Ev::FailoverPoll { node } | Ev::SeqReaderTick { node } => (0, node),
            Ev::ThreadRetry { node, .. } | Ev::ErrorBurst { node, .. } => (0, node),
            Ev::Fail(_) | Ev::Repair(_) | Ev::RingRestored { .. } | Ev::DiagSweep => (0, 0),
            Ev::CounterTick | Ev::SeqWriterTick => (0, 0),
        };
        rank << 8 | u16::from(node)
    }
}

/// The simulated AmpNet cluster.
pub struct Cluster {
    pub(crate) cfg: ClusterConfig,
    pub(crate) topo: Plant,
    pub(crate) ring: PlantRing,
    pub(crate) ring_up: bool,
    pub(crate) epoch: u64,
    pub(crate) sim: Sim<Ev>,
    pub(crate) nodes: Vec<NodeCtx>,
    /// Pooled wire frames shared by every node's data-plane.
    pub(crate) arena: FrameArena,
    /// Per-node output port state (see [`TxPort`]).
    pub(crate) ports: Vec<TxPort>,
    /// Tie class of the event being handled; `u16::MAX` between
    /// [`Cluster::run_until`] calls, when every event at or before
    /// `now` has been. With `now` it is the key a port's `TxDone` is
    /// compared against.
    pub(crate) in_hand: u16,
    /// The eager reference for the differential test: push every
    /// `TxDone` at its send, whether or not anything will wait for it.
    /// Does not exist outside this crate's unit tests.
    #[cfg(test)]
    pub(crate) eager_tx_done: bool,
    pub(crate) retry_pending: Vec<bool>,
    pub(crate) pending_roster: Option<(RosterReason, RosterOutcome)>,
    pub(crate) history: Vec<RosterEvent>,
    /// Position of each node in the current ring (usize::MAX = not a
    /// member).
    pub(crate) ring_pos: Vec<usize>,
    /// Memoized ring successor per node (`None` for non-members).
    /// `kick` runs once per event, and the successor walk only changes
    /// when a roster episode installs a new ring, so it is rebuilt
    /// there — together with each member PHY's outgoing link — instead
    /// of recomputed per transmission attempt.
    pub(crate) ring_succ: Vec<Option<u8>>,
    pub(crate) apps: crate::apps::AppState,
    /// Epoch of the certification sweep in flight, if any (see
    /// `diagnostics.rs`).
    pub(crate) certifying: Option<u64>,
    /// Where the milestone trace starts in the journal, and how many
    /// lines its dump keeps (None = tracing off).
    pub(crate) trace_from: Option<(usize, usize)>,
    /// AmpThreads task table (enabled by `enable_threads`).
    pub(crate) task_table: Option<TaskTable>,
    /// Instant the ring last went down (replay-window anchor).
    pub(crate) ring_down_at: SimTime,
    /// Background sweep interval (None = disabled).
    pub(crate) sweep_interval: Option<SimDuration>,
    /// Journal of externally visible transitions (see `observe.rs`):
    /// the one milestone record besides `history`.
    pub(crate) observations: Vec<(SimTime, ObservedEvent)>,
    /// Cluster-wide telemetry handles (disabled by default).
    pub(crate) tel: CoreTelemetry,
    /// Access-wait and tour meters (record once telemetry is enabled).
    pub(crate) meters: RingMeters,
    /// Cached unicast replay-expiry window, keyed by ring length
    /// (`usize::MAX` = stale). `quiet_tour() * 2` only changes when
    /// the ring does, not per arrival.
    pub(crate) unicast_expiry: (usize, SimDuration),
    /// Datagrams currently sitting in node inboxes, indexed by stream.
    /// Maintained at the transport push sites and the `pop_message*`
    /// sinks, so the multi-segment coordinator can elide a whole
    /// exchange scan (`pending_messages_on(ROUTE_STREAM) == 0` across
    /// all shards) without touching any inbox.
    pub(crate) stream_backlog: [u64; 256],
}

impl Cluster {
    /// Build and boot a cluster. The initial roster episode is charged
    /// for (the ring is up after its two tours).
    pub fn new(cfg: ClusterConfig) -> Self {
        let topo = cfg.build_plant();
        // One prototype port, cloned per node: the clones share its
        // serialize-time table (see `SerialPhy`); `install_ring` sets
        // each member's real fiber run.
        let port = SerialPhy::new(cfg.timing.link(cfg.fiber_length_m), cfg.timing.node_latency);
        let nodes = (0..cfg.n_nodes)
            .map(|i| {
                let mut cache = NetworkCache::new(i as u8);
                for (&region, &size) in &cfg.cache_regions {
                    #[expect(
                        clippy::expect_used,
                        reason = "region ids are the keys of the config's map, so each is new here"
                    )]
                    cache.define_region(region, size).expect("unique regions");
                }
                NodeCtx {
                    stack: NodeStack::new(port.clone(), RegisterMac::new(i as u8, cfg.mac)),
                    cache,
                    online: true,
                    msg_tx: MsgTx::new(i as u8),
                    msg_rx: MsgRx::new(),
                    inbox: VecDeque::new(),
                    cells: VecDeque::new(),
                    interrupts: VecDeque::new(),
                    sem: None,
                    rank: None,
                    ampip: AmpIp::new(i as u8),
                    sem_seq: 0,
                    outstanding: VecDeque::new(),
                    outstanding_unicast: VecDeque::new(),
                }
            })
            .collect();
        let mut sim = Sim::new(cfg.seed);
        #[expect(clippy::expect_used, reason = "ClusterConfig guarantees at least one node")]
        let boot = initial_rostering(&topo, &cfg.timing.roster).expect("nodes exist");
        sim.schedule_at(boot.completed_at, Ev::RingRestored { epoch: 1 });
        let n = cfg.n_nodes;
        Cluster {
            topo,
            ring: PlantRing::empty(),
            ring_up: false,
            epoch: 1,
            sim,
            nodes,
            arena: FrameArena::new(),
            ports: vec![TxPort::IDLE; n],
            in_hand: u16::MAX,
            #[cfg(test)]
            eager_tx_done: false,
            retry_pending: vec![false; n],
            pending_roster: Some((RosterReason::Boot, boot)),
            history: vec![],
            ring_pos: vec![usize::MAX; n],
            ring_succ: vec![None; n],
            apps: Default::default(),
            certifying: None,
            trace_from: None,
            task_table: None,
            ring_down_at: SimTime::ZERO,
            sweep_interval: None,
            observations: vec![],
            tel: Default::default(),
            meters: RingMeters::new(cfg.mac.n_streams),
            unicast_expiry: (usize::MAX, SimDuration::ZERO),
            stream_backlog: [0; 256],
            cfg,
        }
    }

    // ----- clock and run loop -----

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Run the event loop until `deadline`, one event at a time; the
    /// kernel fuses each pop with the handler's first schedule (see
    /// [`Sim::next_event`]).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((class, ev)) = self.sim.next_event(deadline) {
            self.in_hand = class;
            self.handle(ev);
        }
        self.in_hand = u16::MAX;
    }

    /// Run the event loop for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    // ----- introspection -----

    /// The current logical ring.
    pub fn ring(&self) -> &PlantRing {
        &self.ring
    }

    /// Whether the ring is currently carrying traffic.
    pub fn ring_up(&self) -> bool {
        self.ring_up
    }

    /// Current roster epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Completed roster episodes, oldest first.
    pub fn roster_history(&self) -> &[RosterEvent] {
        &self.history
    }

    /// Enable milestone tracing (roster phases, failovers,
    /// certifications) from now on; the dump keeps the most recent
    /// `capacity` lines.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace_from = Some((self.observations.len(), capacity));
    }

    /// The milestone trace: a rendering of the journal since
    /// [`Cluster::enable_trace`] (empty if it never ran).
    pub fn trace(&self) -> Trace<'_> {
        let (from, capacity) = self.trace_from.unwrap_or((self.observations.len(), 0));
        Trace::new(&self.observations[from..], capacity)
    }

    /// The observation journal: every externally visible transition
    /// (failures applied, roster episodes, repairs, bursts), stamped
    /// with simulated time. Deterministic for a given config and seed.
    pub fn observations(&self) -> &[(SimTime, ObservedEvent)] {
        &self.observations
    }

    pub(crate) fn observe(&mut self, ev: ObservedEvent) {
        let now = self.sim.now();
        match &ev {
            ObservedEvent::SpareFault(_) => self.tel.spare_fault(),
            ObservedEvent::RosterStarted { epoch, .. } => self.tel.roster_started(now, *epoch),
            ObservedEvent::RingRestored { epoch, ring_len, .. } => {
                self.tel.ring_restored(now, *epoch, *ring_len)
            }
            ObservedEvent::JoinRejected(node, _) => self.tel.join_rejected(now, *node),
            ObservedEvent::NodeOnline(node) => self.tel.node_online(now, *node),
            ObservedEvent::ErrorBurstEscalated { .. } => self.tel.burst_escalated(),
            ObservedEvent::ErrorBurstAbsorbed { .. } => self.tel.burst_absorbed(),
            _ => {}
        }
        self.observations.push((now, ev));
    }

    // ----- telemetry -----

    /// Enable per-plane telemetry: one shared registry spanning PHY,
    /// MAC, delivery, cache, services and the control plane, plus a
    /// flight recorder retaining the last `flight_capacity` plane
    /// events. Same config + seed ⇒ byte-identical
    /// [`Cluster::metrics_snapshot`] JSON.
    pub fn enable_telemetry(&mut self, flight_capacity: usize) {
        self.enable_telemetry_with(&Telemetry::new(flight_capacity));
    }

    /// Attach an existing [`Telemetry`] handle instead of creating one,
    /// letting several drivers (e.g. a cluster and a standalone ring
    /// segment) share one registry and one flight recorder.
    pub fn enable_telemetry_with(&mut self, tel: &Telemetry) {
        self.tel = CoreTelemetry::new(tel);
        self.meters.instrument(tel);
        for (i, ctx) in self.nodes.iter_mut().enumerate() {
            ctx.stack.instrument(tel);
            ctx.cache.set_telemetry(tel);
            ctx.msg_tx.instrument(tel);
            ctx.msg_rx.instrument(tel, i as u8);
        }
    }

    /// The shared telemetry handle (disabled unless
    /// [`Cluster::enable_telemetry`] ran).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel.tel
    }

    /// Point-in-time snapshot of every registered instrument. Gauges
    /// (MAC occupancy, arena pool state) are refreshed first. Empty
    /// when telemetry is disabled.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.publish_metrics();
        self.tel.tel.snapshot()
    }

    /// Refresh gauge-backed instruments (MAC occupancy, arena pool
    /// state) into the registry without taking a snapshot. The
    /// multi-segment engine calls this on every shard before folding
    /// the per-shard registries with `Telemetry::merge_shards`.
    pub fn publish_metrics(&self) {
        for ctx in &self.nodes {
            ctx.stack.publish_metrics();
            ctx.stack.telemetry.set_backoffs(ctx.stack.mac.backoffs());
        }
        self.tel.publish_arena(&self.arena);
    }

    /// Render the flight-recorder timeline (empty when telemetry is
    /// disabled).
    pub fn flight_dump(&self) -> String {
        self.tel.tel.flight_dump()
    }

    /// Simulation events popped from this cluster's kernel so far. The
    /// scaling benchmark sums this across shards for an events/sec
    /// figure. Kernel pops only: an end of transmission nobody waited
    /// for is never an event and is not counted.
    pub fn events_processed(&self) -> u64 {
        self.sim.processed()
    }

    /// Join attempts rejected by DK policy, oldest first.
    pub fn rejections(&self) -> impl Iterator<Item = (u8, AssimilationFailure)> + '_ {
        self.observations.iter().filter_map(|(_, ev)| match ev {
            ObservedEvent::JoinRejected(node, f) => Some((*node, *f)),
            _ => None,
        })
    }

    /// The physical plant (for assertions).
    pub fn topology(&self) -> &Plant {
        &self.topo
    }

    /// The shared frame pool (occupancy/reuse statistics).
    pub fn arena(&self) -> &FrameArena {
        &self.arena
    }

    /// Sum of `would_drop` across all MACs — the paper says always 0.
    pub fn total_drops(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.stack.mac.stats().would_drop)
            .sum()
    }

    /// Is the node online (assimilated and alive)?
    pub fn node_online(&self, node: u8) -> bool {
        self.nodes[node as usize].online
    }

    /// Do all online nodes hold byte-identical caches right now?
    /// (Only meaningful when traffic has quiesced.)
    pub fn caches_converged(&self) -> bool {
        let mut online = self.nodes.iter().filter(|n| n.online);
        match online.next() {
            None => true,
            Some(first) => online.all(|n| first.cache.converged_with(&n.cache)),
        }
    }

    /// A node's cache replica (read-only).
    pub fn cache(&self, node: u8) -> &NetworkCache {
        &self.nodes[node as usize].cache
    }

    // ----- application-facing operations -----

    /// Send an application datagram from `src` to `dst` (or broadcast
    /// with [`ampnet_packet::BROADCAST`]).
    pub fn send_message(&mut self, src: u8, dst: u8, stream: u8, payload: &[u8]) {
        let pkts = self.nodes[src as usize].msg_tx.send(dst, stream, payload);
        self.send_own(src, pkts);
    }

    /// Queue one raw MicroPacket for insertion at `node`, as the host
    /// queues its own traffic (on stream `tag % n_streams`, or ahead of
    /// the streams if urgent). The door for arbitrary packets: a cell
    /// that fails [`MicroPacket::check`] is refused, and nothing stored.
    pub fn send_cell(&mut self, node: u8, cell: MicroPacket) -> Result<(), PacketError> {
        cell.check()?;
        self.send_own(node, [cell]);
        Ok(())
    }

    /// Pop the next reassembled datagram delivered at `node`. Raw
    /// Data cells never land here; they are read with
    /// [`Cluster::pop_cell`].
    pub fn pop_message(&mut self, node: u8) -> Option<Datagram> {
        let d = self.nodes[node as usize].inbox.pop_front()?;
        self.stream_backlog[d.stream as usize] -= 1;
        Some(d)
    }

    /// Pop the next delivered datagram on a specific stream at `node`,
    /// leaving other streams' traffic queued.
    pub fn pop_message_on(&mut self, node: u8, stream: u8) -> Option<Datagram> {
        let inbox = &mut self.nodes[node as usize].inbox;
        let pos = inbox.iter().position(|d| d.stream == stream)?;
        let d = inbox.remove(pos);
        if d.is_some() {
            self.stream_backlog[stream as usize] -= 1;
        }
        d
    }

    /// Datagrams currently queued in node inboxes on `stream`, across
    /// the whole cluster. O(1) — the multi-segment coordinator polls
    /// this every slice to decide whether an exchange can be elided.
    pub fn pending_messages_on(&self, stream: u8) -> u64 {
        self.stream_backlog[stream as usize]
    }

    /// Time of the earliest pending simulation event, if any (always
    /// after [`Cluster::now`]). The multi-segment slice planner uses
    /// this to skip dead air and to leave quiescent shards unwoken.
    /// The earlier of the heap's top — every stored event is pending —
    /// and the end of any transmission in progress, whether or not its
    /// `TxDone` has been pushed: such an end still counts as an event
    /// here, so the planner sees the dead air, and plans the
    /// boundaries, of a schedule that pushed them all. Read-only: the
    /// planner needs only `&Cluster`.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let now = self.sim.now();
        self.ports
            .iter()
            .map(|p| p.free_at)
            .filter(|&free_at| free_at > now)
            .chain(self.sim.peek_time())
            .min()
    }

    /// A node's register-insertion MAC, read-only.
    pub fn mac(&self, node: u8) -> &RegisterMac {
        &self.nodes[node as usize].stack.mac
    }

    /// Number of configured nodes.
    pub fn n_nodes(&self) -> usize {
        self.cfg.n_nodes
    }

    /// Enable the background diagnostic sweep (slide 18): every
    /// `interval`, the DK scans for failed *spare* components — faults
    /// that dim no ring light and so trigger no emergency rostering —
    /// and logs them for maintenance.
    pub fn enable_background_sweep(&mut self, interval: SimDuration) {
        if self.sweep_interval.is_none() {
            self.sim.schedule_in(interval, Ev::DiagSweep);
        }
        self.sweep_interval = Some(interval);
    }

    /// Spare faults found by the background sweep, oldest first, with
    /// the instant each was found.
    pub fn spare_faults(&self) -> impl Iterator<Item = (SimTime, Component)> + '_ {
        self.observations.iter().filter_map(|(at, ev)| match ev {
            ObservedEvent::SweepFoundSpare(c) => Some((*at, *c)),
            _ => None,
        })
    }

    /// Enable AmpThreads: the task table lives in `region` (must be a
    /// configured cache region of at least `slots × 16` bytes); thread
    /// doorbell interrupts then execute automatically at their target.
    pub fn enable_threads(&mut self, region: u8, slots: u32) {
        self.task_table = Some(TaskTable { region, slots });
    }

    /// Submit a remote task: writes the replicated task entry and
    /// rings the target's doorbell. Collect with
    /// [`Cluster::collect_remote`]. Returns `false` (submitting
    /// nothing) when the slot still holds a pending or uncollected
    /// task — callers pick another slot or retry after collecting.
    pub fn spawn_remote(
        &mut self,
        submitter: u8,
        slot: u32,
        kind: TaskKind,
        target: u8,
        arg: u32,
    ) -> bool {
        #[expect(
            clippy::expect_used,
            reason = "public task entry points are documented as gated on enable_threads"
        )]
        let table = self.task_table.expect("enable_threads first");
        let (pkts, doorbell) =
            match table.submit(&mut self.nodes[submitter as usize].cache, slot, kind, target, arg)
            {
                Ok(out) => out,
                Err(TaskError::SlotBusy) => return false,
                #[expect(
                    clippy::panic,
                    reason = "a misconfigured task-table region is a harness bug, not a protocol state; fail loud"
                )]
                Err(TaskError::Cache(e)) => panic!("task table region configured: {e}"),
            };
        self.send_own(submitter, pkts.into_iter().chain([doorbell]));
        true
    }

    /// Collect a finished remote task's result at `node` (frees the
    /// slot network-wide). `None` while still pending.
    pub fn collect_remote(&mut self, node: u8, slot: u32) -> Option<u32> {
        let table = self.task_table?;
        let (result, pkts) = table
            .collect(&mut self.nodes[node as usize].cache, slot)
            .ok()??;
        self.send_own(node, pkts);
        Some(result)
    }

    /// Bind an AmpIP port at `node`.
    pub fn sock_bind(&mut self, node: u8, port: u16) -> Result<(), SocketError> {
        self.nodes[node as usize].ampip.bind(port)
    }

    /// Send an AmpIP datagram from `(node, src_port)` to `dst`.
    pub fn sock_send(
        &mut self,
        node: u8,
        src_port: u16,
        dst: SockAddr,
        data: &[u8],
    ) -> Result<(), SocketError> {
        let pkts = self.nodes[node as usize]
            .ampip
            .send_to(src_port, dst, data)?;
        self.send_own(node, pkts);
        Ok(())
    }

    /// Receive the next AmpIP datagram on a bound port at `node`.
    pub fn sock_recv(&mut self, node: u8, port: u16) -> Option<Received> {
        self.nodes[node as usize].ampip.recv_from(port)
    }

    /// Pop the next Data cell delivered at `node`.
    pub fn pop_cell(&mut self, node: u8) -> Option<DataCell> {
        self.nodes[node as usize].cells.pop_front()
    }

    /// Pop the next delivered interrupt at `node`.
    pub fn pop_interrupt(&mut self, node: u8) -> Option<InterruptPayload> {
        self.nodes[node as usize].interrupts.pop_front()
    }

    /// Send a remote interrupt (urgent MicroPacket) from `src` to
    /// `dst`. Vectors other than the AmpThreads doorbell surface at the
    /// destination via [`Cluster::pop_interrupt`].
    pub fn send_interrupt(&mut self, src: u8, dst: u8, payload: InterruptPayload) {
        self.send_own(src, [build::interrupt(src, dst, payload)]);
    }

    /// Write to the network cache at `node`; the update replicates to
    /// every online node via broadcast DMA MicroPackets.
    pub fn cache_write(&mut self, node: u8, region: u8, offset: u32, data: &[u8]) {
        #[expect(
            clippy::expect_used,
            reason = "the write targets a region defined during setup, offset bounded by layout"
        )]
        let pkts = self.nodes[node as usize]
            .cache
            .write(region, offset, data, 1, 1)
            .expect("valid cache write");
        self.send_own(node, pkts);
    }

    /// Write a file through an AmpFiles store handle at `node`; the
    /// store's region must be configured on every node. The data,
    /// heap-cursor and directory-entry updates replicate via broadcast
    /// DMA MicroPackets, directory entry last (the commit point), so
    /// replicas never observe a half-written file.
    pub fn file_write(
        &mut self,
        node: u8,
        store: &FileStore,
        name: &str,
        data: &[u8],
    ) -> Result<(), FileError> {
        let pkts = store.write(&mut self.nodes[node as usize].cache, name, data)?;
        self.send_own(node, pkts);
        Ok(())
    }

    /// Write a seqlock record at `node` (slide 9 protocol).
    pub fn record_write(&mut self, node: u8, layout: RecordLayout, data: &[u8]) {
        #[expect(
            clippy::expect_used,
            reason = "record regions are defined at setup with fixed record sizes"
        )]
        let pkts =
            seqlock_msg::write_record(&mut self.nodes[node as usize].cache, layout, data, 1, 1)
                .expect("valid record write");
        self.send_own(node, pkts);
    }

    /// One local seqlock read attempt at `node`.
    #[expect(
        clippy::expect_used,
        reason = "layout was validated when the record region was defined"
    )]
    pub fn record_try_read(&self, node: u8, layout: RecordLayout) -> ReadOutcome<'_> {
        seqlock_msg::try_read(&self.nodes[node as usize].cache, layout).expect("valid layout")
    }

    // ----- fault injection scheduling -----

    /// Schedule a component failure.
    pub fn schedule_failure(&mut self, at: SimTime, c: Component) {
        self.sim.schedule_at(at, Ev::Fail(c));
    }

    /// Schedule a node (re-)join. A `node` the cluster was not built
    /// with is ignored.
    pub fn schedule_join(&mut self, at: SimTime, node: u8, req: JoinRequest) {
        self.sim.schedule_at(at, Ev::Join { node, req });
    }

    /// Schedule a switch/link repair (splice the fiber, power the
    /// switch). Node repairs go through [`Cluster::schedule_join`] —
    /// nodes must re-assimilate. If the repair lets a larger logical
    /// ring exist, a roster episode rebuilds onto it.
    pub fn schedule_repair(&mut self, at: SimTime, c: Component) {
        assert!(
            !matches!(c, Component::Node(_)),
            "node repairs must re-assimilate: use schedule_join"
        );
        self.sim.schedule_at(at, Ev::Repair(c));
    }

    /// Schedule a phy-level bit-error burst on `node`'s receive fiber:
    /// `errors` single-bit corruptions of the serial stream, replayable
    /// from `seed`. A detected burst escalates exactly like a carrier
    /// loss — the receiving NIU declares its upstream ring link dead
    /// and rostering heals around it; replay then restores any traffic
    /// the corrupted window cost (paper slides 16–18). A `node` the
    /// cluster was not built with is ignored.
    pub fn schedule_error_burst(&mut self, at: SimTime, node: u8, seed: u64, errors: u32) {
        self.sim.schedule_at(at, Ev::ErrorBurst { node, seed, errors });
    }
}

// A whole cluster must be movable to a worker thread of the sharded
// multi-segment engine. This assertion fails to compile if any layer
// reintroduces a non-`Send` handle (the telemetry `Rc` was the last).
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<Cluster>();

#[cfg(test)]
mod tests {
    //! The kernel's event queue is a binary heap because the live queue
    //! is shallow: a few events per node plus pre-scheduled faults and
    //! application timers (DESIGN.md §13; the benchmark workloads peak
    //! at 140–149 stored entries). These tests make that traffic
    //! assumption executable — if a future workload breaks it, they
    //! fail and the queue choice needs revisiting.

    use super::*;
    use ampnet_dk::{Features, Version};
    use ampnet_topo::SwitchId;

    /// What the heap is sized and justified for.
    const SHALLOW: usize = 256;

    /// Advance to `deadline` one event instant at a time, sampling the
    /// queue between instants — where its depth peaks, since handlers
    /// only push and the next pop only removes. Returns the high-water.
    fn pending_high_water(c: &mut Cluster, deadline: SimTime) -> usize {
        let mut high = c.sim.pending();
        while let Some(t) = c.next_event_time().filter(|&t| t <= deadline) {
            c.run_until(t);
            high = high.max(c.sim.pending());
        }
        c.run_until(deadline);
        high
    }

    #[test]
    fn event_queue_stays_shallow_under_multiseg_style_bursts() {
        // One segment of the `multiseg_scale` shape: 32 nodes, 96
        // unicasts injected at once every 250 µs, sizes cycling so most
        // datagrams fragment.
        let mut c = Cluster::new(ClusterConfig::small(32).with_seed(16));
        c.run_for(SimDuration::from_millis(2));
        assert!(c.ring_up());
        let payload = [0xA5u8; 260];
        let mut high = 0;
        for round in 0..8usize {
            for k in 0..96usize {
                let src = k % 32;
                let dst = (src + 1 + (k * 7 + round) % 31) % 32;
                let len = [12, 68, 260][(round + k) % 3];
                c.send_message(src as u8, dst as u8, crate::ROUTE_STREAM, &payload[..len]);
            }
            let deadline = c.now() + SimDuration::from_micros(250);
            high = high.max(pending_high_water(&mut c, deadline));
        }
        assert_eq!(c.total_drops(), 0);
        assert!(high < SHALLOW, "queue high-water {high} under bursts");
    }

    #[test]
    fn event_queue_stays_shallow_through_a_heal_cycle() {
        // One `chaos_heal` cycle — crash, cut, rejoin (online ~71 ms
        // after it is asked to), splice — under all-to-all traffic and
        // a replicated cache write from every node every 4 ms.
        let mut c = Cluster::new(ClusterConfig::small(16).with_seed(16));
        c.run_for(SimDuration::from_millis(10));
        assert!(c.ring_up());
        let t0 = c.now();
        let at = |ms| t0 + SimDuration::from_millis(ms);
        let fiber = Component::Link(NodeId(5), SwitchId(0));
        c.schedule_failure(at(8), Component::Node(NodeId(3)));
        c.schedule_failure(at(16), fiber);
        let req = JoinRequest {
            node: 3,
            version: Version::new(1, 0, 0),
            features: Features::NONE,
            diagnostics_pass: true,
        };
        c.schedule_join(at(24), 3, req);
        c.schedule_repair(at(104), fiber);
        let mut high = 0;
        for step in 1..=30 {
            let online: Vec<u8> = (0..16).filter(|&n| c.node_online(n)).collect();
            for &src in &online {
                for &dst in online.iter().filter(|&&d| d != src) {
                    c.send_message(src, dst, 1, &[src; 32]);
                }
                c.cache_write(src, 0, 64 * src as u32, &[step as u8; 64]);
            }
            high = high.max(pending_high_water(&mut c, at(4 * step)));
        }
        assert!(c.ring_up());
        assert_eq!(c.ring().len(), 16, "node 3 is back and the fiber spliced");
        assert_eq!(
            c.roster_history().len(),
            4,
            "boot, crash, cut, rejoin (the splice enlarges nothing)"
        );
        assert!(high < SHALLOW, "queue high-water {high} through healing");
    }
}
