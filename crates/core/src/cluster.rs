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
use ampnet_cache::{CacheError, NetworkCache, SemaphoreClient};
use ampnet_dk::{AssimilationFailure, JoinRequest};
use ampnet_packet::build::{self, InterruptPayload};
use ampnet_packet::{FrameArena, FrameRef, MicroPacket, PacketError, BROADCAST, FIXED_PAYLOAD};
use ampnet_ring::{NodeStack, RegisterMac, RingMeters, SerialPhy};
use ampnet_roster::{initial_rostering, RosterOutcome};
use ampnet_services::mpi::Rank;
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
    /// Collective rank engine (rank = node id); empty until used.
    pub(crate) rank: Rank,
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

/// One node's ring port: its seat on the committed ring and the state
/// of its output. A transmission ends with an `Ev::TxDone` at
/// `free_at`, but the event is pushed only once something waits for
/// the port (see `transport.rs`). The port is busy while that event's
/// key lies after the event in hand.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TxPort {
    /// `(epoch stamp, successor)` as the last roster commit left them
    /// (slide 16); `None` off the ring: down, left out, or mid-episode.
    pub(crate) seat: Option<(u32, u8)>,
    /// Instant the frame on the wire has been clocked out.
    pub(crate) free_at: SimTime,
    /// The `TxDone` at `free_at` has been pushed (or the port never
    /// sent).
    pub(crate) requested: bool,
    /// An `Ev::Retry` (pacing backoff) is pending for this node.
    pub(crate) retry_pending: bool,
}

impl TxPort {
    /// A port off the ring that has not sent since the ring came up.
    pub(crate) const IDLE: TxPort = TxPort {
        seat: None,
        free_at: SimTime::ZERO,
        requested: true,
        retry_pending: false,
    };
}

/// A kernel event: 16 bytes, the kernel's budget
/// (`ampnet_sim::EVENT_BYTES`). The hop events carry the epoch stamp of
/// the sender's seat (`Cluster::epoch_stamp`), and the receiving node
/// compares it with its own; `SemTimeout` and `ErrorBurst` are the
/// largest variants, at exactly 16.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    Arrival { epoch: u32, node: u8, frame: FrameRef },
    TxDone { epoch: u32, node: u8 },
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
    /// The roster's counter: the last episode begun, committed or pending.
    pub(crate) epoch: u64,
    pub(crate) sim: Sim<Ev>,
    pub(crate) nodes: Vec<NodeCtx>,
    /// Pooled wire frames shared by every node's data-plane.
    pub(crate) arena: FrameArena,
    /// Per-node ring port: seat and output state (see [`TxPort`]).
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
    pub(crate) pending_roster: Option<(RosterReason, RosterOutcome)>,
    pub(crate) history: Vec<RosterEvent>,
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
    /// Unicast replay-expiry window, two quiet tours of the installed
    /// ring: computed when a ring is installed, not per arrival.
    pub(crate) unicast_expiry: SimDuration,
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
    ///
    /// # Panics
    ///
    /// On a configuration no cluster can be built from: `n_nodes`
    /// outside 1..=255, `mac.n_streams` of 0, a torus whose dimensions
    /// do not multiply to `n_nodes`, a crossbar outside 1..=8 switches,
    /// or a folded Clos without a leaf and a spine.
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
                    rank: Rank::new(i as u8, cfg.n_nodes as u8),
                    ampip: AmpIp::new(i as u8),
                    sem_seq: 0,
                    outstanding: VecDeque::new(),
                    outstanding_unicast: VecDeque::new(),
                }
            })
            .collect();
        let mut sim = Sim::new(cfg.seed);
        #[expect(clippy::expect_used, reason = "Plant::new asserts ≥ 1 node, and all start alive")]
        let boot = initial_rostering(&topo, &cfg.timing.roster).expect("nodes exist");
        sim.schedule_at(boot.completed_at, Ev::RingRestored { epoch: 1 });
        Cluster {
            topo,
            ring: PlantRing::empty(),
            epoch: 1,
            sim,
            nodes,
            arena: FrameArena::new(),
            ports: vec![TxPort::IDLE; cfg.n_nodes],
            in_hand: u16::MAX,
            #[cfg(test)]
            eager_tx_done: false,
            pending_roster: Some((RosterReason::Boot, boot)),
            history: vec![],
            apps: Default::default(),
            certifying: None,
            trace_from: None,
            task_table: None,
            ring_down_at: SimTime::ZERO,
            sweep_interval: None,
            observations: vec![],
            tel: Default::default(),
            meters: RingMeters::new(cfg.mac.n_streams),
            unicast_expiry: SimDuration::ZERO,
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

    /// Whether the ring is currently carrying traffic: no roster
    /// episode is pending and the last one committed a ring.
    pub fn ring_up(&self) -> bool {
        self.pending_roster.is_none() && !self.ring.is_empty()
    }

    /// The roster epoch: the last episode begun, committed or pending.
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

    /// The door every call naming an acting node goes through: `node`'s
    /// context, or `None` for a node the cluster was not built with.
    /// Below it a node id is taken as valid.
    pub(crate) fn node(&self, node: u8) -> Option<&NodeCtx> {
        self.nodes.get(node as usize)
    }

    /// [`Cluster::node`], mutable.
    pub(crate) fn node_mut(&mut self, node: u8) -> Option<&mut NodeCtx> {
        self.nodes.get_mut(node as usize)
    }

    /// `node`'s replica, for a door whose error is a [`CacheError`].
    fn replica_mut(&mut self, node: u8) -> Result<&mut NetworkCache, CacheError> {
        let ctx = self.node_mut(node).ok_or(CacheError::UnknownNode(node))?;
        Ok(&mut ctx.cache)
    }

    /// Is the node online (assimilated and alive)? `false` for a node
    /// the cluster was not built with.
    pub fn node_online(&self, node: u8) -> bool {
        self.node(node).is_some_and(|n| n.online)
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
    pub fn cache(&self, node: u8) -> Option<&NetworkCache> {
        self.node(node).map(|n| &n.cache)
    }

    // ----- application-facing operations -----

    /// Send an application datagram from `src` to `dst` (or broadcast
    /// with [`ampnet_packet::BROADCAST`]). Nothing is sent from a node
    /// the cluster was not built with.
    pub fn send_message(&mut self, src: u8, dst: u8, stream: u8, payload: &[u8]) {
        let Some(ctx) = self.node_mut(src) else {
            return;
        };
        let pkts = ctx.msg_tx.send(dst, stream, payload);
        self.send_own(src, pkts);
    }

    /// Queue one raw MicroPacket for insertion at the node its source
    /// field names, as the host queues its own traffic (on stream
    /// `tag % n_streams`, or ahead of the streams if urgent): on the
    /// ring a broadcast is stripped by the node it names as its source.
    /// The door for arbitrary packets: a cell that fails
    /// [`MicroPacket::check`], or names a source the cluster was not
    /// built with ([`PacketError::UnknownNode`]), is refused, and
    /// nothing stored. A broadcast DMA cell updates its source's own
    /// replica as it is queued, as [`Cluster::cache_write`] does.
    pub fn send_cell(&mut self, cell: MicroPacket) -> Result<(), PacketError> {
        cell.check()?;
        if self.node(cell.ctrl.src).is_none() {
            return Err(PacketError::UnknownNode(cell.ctrl.src));
        }
        self.queue_cell(cell);
        Ok(())
    }

    /// Queue a well-formed cell at its source, a node the cluster has
    /// (`send_cell` past its checks, and `CellTraffic`). A source strips
    /// its own broadcast unread, so its replica takes a DMA cell here,
    /// tolerant as the receivers are.
    pub(crate) fn queue_cell(&mut self, cell: MicroPacket) {
        let node = cell.ctrl.src;
        if cell.ctrl.dst == BROADCAST {
            let _ = self.nodes[node as usize].cache.apply_packet(&cell);
        }
        self.send_own(node, [cell]);
    }

    /// Pop the next reassembled datagram delivered at `node`. Raw
    /// Data cells never land here; they are read with
    /// [`Cluster::pop_cell`].
    pub fn pop_message(&mut self, node: u8) -> Option<Datagram> {
        let d = self.node_mut(node)?.inbox.pop_front()?;
        self.stream_backlog[d.stream as usize] -= 1;
        Some(d)
    }

    /// Pop the next delivered datagram on a specific stream at `node`,
    /// leaving other streams' traffic queued.
    pub fn pop_message_on(&mut self, node: u8, stream: u8) -> Option<Datagram> {
        let inbox = &mut self.node_mut(node)?.inbox;
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
    pub fn mac(&self, node: u8) -> Option<&RegisterMac> {
        self.node(node).map(|n| &n.stack.mac)
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

    /// Enable AmpThreads: the task table lives in `region`, a
    /// configured cache region of at least `slots × 16` bytes; thread
    /// doorbell interrupts then execute automatically at their target,
    /// and completion interrupts are consumed at the submitter, which
    /// collects the result from the table.
    pub fn enable_threads(&mut self, region: u8, slots: u32) {
        self.task_table = Some(TaskTable { region, slots });
    }

    /// Submit a remote task: writes the replicated task entry and
    /// rings the target's doorbell. Collect with
    /// [`Cluster::collect_remote`]. Submits nothing on an error:
    /// `SlotBusy` while the slot holds a pending or uncollected task,
    /// `NoTable` before [`Cluster::enable_threads`], `NoSlot` for a
    /// slot past the table, `Cache` for an undefined region or a
    /// submitter the cluster was not built with.
    pub fn spawn_remote(
        &mut self,
        submitter: u8,
        slot: u32,
        kind: TaskKind,
        target: u8,
        arg: u32,
    ) -> Result<(), TaskError> {
        let table = self.task_table.ok_or(TaskError::NoTable)?;
        let (pkts, doorbell) =
            table.submit(self.replica_mut(submitter)?, slot, kind, target, arg)?;
        self.send_own(submitter, pkts.into_iter().chain([doorbell]));
        Ok(())
    }

    /// Collect a finished remote task's result at `node` (frees the
    /// slot network-wide). `Ok(None)` while still pending; the errors
    /// of [`Cluster::spawn_remote`] otherwise.
    pub fn collect_remote(&mut self, node: u8, slot: u32) -> Result<Option<u32>, TaskError> {
        let table = self.task_table.ok_or(TaskError::NoTable)?;
        let done = table.collect(self.replica_mut(node)?, slot)?;
        Ok(done.map(|(result, pkts)| {
            self.send_own(node, pkts);
            result
        }))
    }

    /// Bind an AmpIP port at `node`.
    pub fn sock_bind(&mut self, node: u8, port: u16) -> Result<(), SocketError> {
        let ctx = self.node_mut(node).ok_or(SocketError::UnknownNode(node))?;
        ctx.ampip.bind(port)
    }

    /// Send an AmpIP datagram from `(node, src_port)` to `dst`.
    pub fn sock_send(
        &mut self,
        node: u8,
        src_port: u16,
        dst: SockAddr,
        data: &[u8],
    ) -> Result<(), SocketError> {
        let ctx = self.node_mut(node).ok_or(SocketError::UnknownNode(node))?;
        let pkts = ctx.ampip.send_to(src_port, dst, data)?;
        self.send_own(node, pkts);
        Ok(())
    }

    /// Receive the next AmpIP datagram on a bound port at `node`.
    pub fn sock_recv(&mut self, node: u8, port: u16) -> Option<Received> {
        self.node_mut(node)?.ampip.recv_from(port)
    }

    /// Pop the next Data cell delivered at `node`.
    pub fn pop_cell(&mut self, node: u8) -> Option<DataCell> {
        self.node_mut(node)?.cells.pop_front()
    }

    /// Pop the next delivered interrupt at `node`.
    pub fn pop_interrupt(&mut self, node: u8) -> Option<InterruptPayload> {
        self.node_mut(node)?.interrupts.pop_front()
    }

    /// Send a remote interrupt (urgent MicroPacket) from `src` to
    /// `dst`. Vectors other than the AmpThreads doorbell and completion
    /// surface at the destination via [`Cluster::pop_interrupt`].
    /// Nothing is sent from a node the cluster was not built with.
    pub fn send_interrupt(&mut self, src: u8, dst: u8, payload: InterruptPayload) {
        if self.node(src).is_some() {
            self.send_own(src, [build::interrupt(src, dst, payload)]);
        }
    }

    /// Write to the network cache at `node`; the update replicates to
    /// every online node via broadcast DMA MicroPackets. A write outside
    /// a defined region is refused and changes no replica.
    pub fn cache_write(
        &mut self,
        node: u8,
        region: u8,
        offset: u32,
        data: &[u8],
    ) -> Result<(), CacheError> {
        let pkts = self.replica_mut(node)?.write(region, offset, data, 1, 1)?;
        self.send_own(node, pkts);
        Ok(())
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
        let pkts = store.write(self.replica_mut(node)?, name, data)?;
        self.send_own(node, pkts);
        Ok(())
    }

    /// Write a seqlock record at `node` (slide 9 protocol); a record
    /// outside its region, or `data` not its size, changes no replica.
    pub fn record_write(
        &mut self,
        node: u8,
        layout: RecordLayout,
        data: &[u8],
    ) -> Result<(), CacheError> {
        let pkts = seqlock_msg::write_record(self.replica_mut(node)?, layout, data, 1, 1)?;
        self.send_own(node, pkts);
        Ok(())
    }

    /// One local seqlock read attempt at `node`; refused outside its region.
    pub fn record_try_read(
        &self,
        node: u8,
        layout: RecordLayout,
    ) -> Result<ReadOutcome<'_>, CacheError> {
        let cache = self.cache(node).ok_or(CacheError::UnknownNode(node))?;
        seqlock_msg::try_read(cache, layout)
    }

    // ----- fault injection scheduling -----

    /// Schedule a component failure.
    pub fn schedule_failure(&mut self, at: SimTime, c: Component) {
        self.sim.schedule_at(at, Ev::Fail(c));
    }

    /// Schedule a node (re-)join. A `node` the cluster was not built
    /// with is ignored.
    pub fn schedule_join(&mut self, at: SimTime, node: u8, req: JoinRequest) {
        if self.node(node).is_some() {
            self.sim.schedule_at(at, Ev::Join { node, req });
        }
    }

    /// Schedule a switch/link repair (splice the fiber, power the
    /// switch). If the repair lets a larger logical ring exist, a
    /// roster episode rebuilds onto it. A node is ignored: nodes
    /// re-assimilate, through [`Cluster::schedule_join`].
    pub fn schedule_repair(&mut self, at: SimTime, c: Component) {
        if !matches!(c, Component::Node(_)) {
            self.sim.schedule_at(at, Ev::Repair(c));
        }
    }

    /// Schedule a phy-level bit-error burst on `node`'s receive fiber:
    /// `errors` single-bit corruptions of the serial stream, replayable
    /// from `seed`. A detected burst escalates exactly like a carrier
    /// loss — the receiving NIU declares its upstream ring link dead
    /// and rostering heals around it; replay then restores any traffic
    /// the corrupted window cost (paper slides 16–18). A `node` the
    /// cluster was not built with is ignored.
    pub fn schedule_error_burst(&mut self, at: SimTime, node: u8, seed: u64, errors: u32) {
        if self.node(node).is_some() {
            self.sim
                .schedule_at(at, Ev::ErrorBurst { node, seed, errors });
        }
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

    #[test]
    fn an_event_is_at_the_kernels_budget() {
        assert_eq!(
            std::mem::size_of::<Ev>(),
            ampnet_sim::EVENT_BYTES,
            "a u64 epoch in the hop events makes every heap entry 40 bytes, not 32"
        );
    }

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
                c.cache_write(src, 0, 64 * src as u32, &[step as u8; 64]).unwrap();
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
