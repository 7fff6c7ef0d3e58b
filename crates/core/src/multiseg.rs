//! Multi-segment AmpNet networks (slide 15): dual- and quad-redundant
//! *segments* joined by router nodes ("R" — and "2R's" for redundant
//! routers).
//!
//! Each segment is a full [`Cluster`] with its own ring, cache and
//! self-healing. A *bridge* is a pair of router nodes, one on each
//! segment, connected by an inter-segment link. Globally-addressed
//! datagrams `(segment, node)` hop segment-locally to the router,
//! cross the bridge, and continue — with automatic failover to a
//! redundant bridge when a router node dies.
//!
//! # Sharded conservative PDES
//!
//! The segments run in lockstep time slices (conservative parallel
//! discrete-event simulation). Each slice, every cluster *shard*
//! advances to the same simulated instant — under
//! [`ParallelMode::Threads`] contiguous chunks of the shard slice
//! advance concurrently on scoped threads (see `advance`) — then the
//! caller performs the *boundary exchange*: route-stream inboxes are
//! drained in deterministic `(segment, node, FIFO seq)` order and
//! matured bridge crossings injected per *dirty* bridge in
//! bridge-registration order.
//!
//! Why determinism survives threads: shards only interact through the
//! exchange. During a slice each cluster is advanced by exactly one
//! thread, which holds the only `&mut` to it (shard confinement — its
//! kernel, RNG, trace and telemetry registry are private to the
//! shard), so its state after the slice is a pure function of its
//! state before it, independent of scheduling. The engine has no
//! synchronisation code of its own: `chunks_mut` proves the chunks
//! disjoint, the end of `std::thread::scope` is the barrier, and a
//! panicking shard propagates through the scope's join. The exchange
//! itself always runs on the caller, after that join, in a fixed total
//! order.
//!
//! The minimum bridge latency is the classic conservative *lookahead*:
//! a datagram handed to a bridge at one boundary cannot affect the far
//! segment before `latency` has passed, so slices up to that long
//! never miss a causal interaction. (Slices may be *coarser*: inboxes
//! are drained only at boundaries, so the effective crossing time is
//! quantised to the slice either way; crossings are injected exactly
//! at their maturity instant, see [`MultiSegment::run_until`].)
//!
//! # Adaptive lookahead
//!
//! Fixed slices charge the full synchronization price — a plan, a
//! thread join and an exchange scan — every `slice` nanoseconds, even
//! through phases where no bridge carries any traffic. The engine
//! amortizes that four ways (all default, see [`Lookahead`]):
//!
//! * **Adaptive slice sizing and fusion** ([`SlicePlanner`]): quiet
//!   exchanges double the slice up to [`crate::MAX_SLICE_GROWTH`]× the
//!   base, any moved traffic resets it, and dead air (no shard has an
//!   event before the tentative boundary) is skipped outright. Once a
//!   quiet phase is established ([`crate::FUSE_AFTER`] consecutive
//!   quiet exchanges) and no crossing is in flight, consecutive quiet
//!   slices *fuse*: one [`crate::FUSE_FACTOR`]-wide window is planned
//!   and advanced as a single slice instead of re-planning each one.
//! * **Quiescent-shard skipping**: a shard with no event due within
//!   the slice costs an O(1) clock bump, and a chunk of nothing but
//!   such shards is bumped on the caller instead of on a thread. Every
//!   shard's clock still advances every slice. Threads are spawned
//!   only when two or more chunks hold a busy shard, so a slice where
//!   *every* shard is quiescent spawns none (counted in
//!   [`SliceStats::barriers_elided`]).
//! * **Dirty-bridge exchange**: in-flight crossings are queued per
//!   bridge (`CrossingSet`); a bridge is *dirty* while its queue is
//!   non-empty. The delivery merge runs only over dirty bridges, the
//!   earliest-maturity scan is one `front()` peek per bridge, and the
//!   route-stream drain is gated on per-shard `ROUTE_STREAM` backlog
//!   (an O(1) check per shard against [`Cluster::pending_messages_on`]).
//! * **Exchange skipping**: when no shard holds backlog *and* no
//!   crossing has matured, the whole exchange is a proven no-op and is
//!   skipped outright ([`SliceStats::exchanges_skipped`]). Elision and
//!   skipping are pure no-ops, so [`Lookahead::Fixed`] plus elision
//!   reproduces the fixed-slice engine bit-for-bit.
//!
//! Every decision above is a pure function of shard-visible state at a
//! boundary (queue peeks, inbox backlog, in-flight crossings) — all
//! deterministic functions of the seed — so Serial and Threads modes
//! plan identical boundary sequences and produce identical digests.
//! The `slice-planner` model in `ampnet-check` exhaustively verifies
//! the planner never delivers a crossing past its maturity and never
//! starves a shard; `tests/parallel_equivalence.rs` pins cross-mode
//! digest equality under both policies.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

use crate::cluster::Cluster;
use crate::config::ClusterConfig;
use crate::planner::{Lookahead, SlicePlanner};
use ampnet_sim::{Fnv64, SimDuration, SimTime};
use ampnet_telemetry::{defs, CounterHandle, MetricsSnapshot, Telemetry, GLOBAL};
use std::collections::VecDeque;

/// Message stream reserved for inter-segment routing.
pub const ROUTE_STREAM: u8 = 5;

/// A global address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalAddr {
    /// Index of the segment.
    pub segment: u8,
    /// Node within the segment.
    pub node: u8,
}

/// One inter-segment bridge (a router pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bridge {
    /// Endpoint on the first segment.
    pub a: GlobalAddr,
    /// Endpoint on the second segment.
    pub b: GlobalAddr,
    /// One-way latency across the bridge.
    pub latency: SimDuration,
}

/// A routed datagram awaiting cross-bridge delivery.
#[derive(Debug)]
struct InFlight {
    deliver_at: SimTime,
    ingress: GlobalAddr,
    wire: Vec<u8>,
}

/// In-flight crossings, queued per bridge (index = bridge registration
/// order). A bridge with a non-empty queue is *dirty*; the delivery
/// merge runs only over dirty bridges and the whole exchange is
/// skipped when no queue holds a matured entry.
///
/// Every push happens at a boundary instant `now` with `deliver_at =
/// now + latency` for that bridge's constant latency, and boundaries
/// are monotone — so each queue is FIFO *and* sorted by `deliver_at`.
/// The front entry therefore carries the bridge's earliest maturity:
/// the planner's earliest-crossing scan and the matured check are one
/// `front()` peek per bridge instead of a walk over every crossing.
#[derive(Default)]
struct CrossingSet {
    per_bridge: Vec<VecDeque<InFlight>>,
}

impl CrossingSet {
    /// Grow to cover `n_bridges` queues (bridges are only ever added).
    fn ensure(&mut self, n_bridges: usize) {
        if self.per_bridge.len() < n_bridges {
            self.per_bridge.resize_with(n_bridges, VecDeque::new);
        }
    }

    /// Queue a crossing on bridge `idx` (registration order).
    fn push(&mut self, idx: usize, x: InFlight) {
        self.ensure(idx + 1);
        debug_assert!(
            self.per_bridge[idx].back().is_none_or(|b| b.deliver_at <= x.deliver_at),
            "per-bridge queues must stay sorted by maturity"
        );
        self.per_bridge[idx].push_back(x);
    }

    /// Earliest in-flight maturity strictly after `now`, across all
    /// bridges (one front peek per dirty bridge).
    fn earliest_after(&self, now: SimTime) -> Option<SimTime> {
        self.per_bridge
            .iter()
            .filter_map(|q| q.front())
            .map(|x| x.deliver_at)
            .filter(|&t| t > now)
            .min()
    }

    /// Take bridge `idx`'s front crossing if it matured at or before
    /// `now`.
    fn pop_matured(&mut self, idx: usize, now: SimTime) -> Option<InFlight> {
        let queue = &mut self.per_bridge[idx];
        if queue.front()?.deliver_at <= now {
            queue.pop_front()
        } else {
            None
        }
    }

    /// Does any bridge hold a crossing matured at or before `t`?
    fn any_matured(&self, t: SimTime) -> bool {
        self.per_bridge
            .iter()
            .any(|q| q.front().is_some_and(|x| x.deliver_at <= t))
    }

    /// Number of dirty bridges (non-empty queues) right now.
    fn dirty_count(&self) -> u64 {
        self.per_bridge.iter().filter(|q| !q.is_empty()).count() as u64
    }
}

/// A delivered global datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalDatagram {
    /// Original sender.
    pub src: GlobalAddr,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// How the lockstep engine advances its shards each slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelMode {
    /// One thread advances every shard in segment order — the
    /// reference execution.
    Serial,
    /// The shards are split into this many contiguous chunks (at most
    /// one per shard) and, in a slice where two or more chunks hold a
    /// busy shard, the busy chunks advance concurrently: one scoped
    /// thread each, the last on the caller. Produces bit-identical
    /// results to [`ParallelMode::Serial`] for the same seed —
    /// enforced by `tests/parallel_equivalence.rs`.
    Threads(usize),
}

/// Accumulated counters from the lockstep engine, one total per
/// [`MultiSegment`] across all `run_until` calls.
///
/// All fields except [`SliceStats::worker_wakes`] are *mode-invariant*:
/// computed from deterministic simulation state, so they are
/// bit-identical across [`ParallelMode`]s for the same seed (and safe
/// to publish through telemetry). `worker_wakes` depends on the chunk
/// count and is reported here only — never in a digest or a merged
/// snapshot.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SliceStats {
    /// Lockstep slices executed (boundary exchanges reached).
    pub slices: u64,
    /// Exchanges where the route-stream drain was skipped because no
    /// shard held `ROUTE_STREAM` backlog.
    pub drains_elided: u64,
    /// Exchanges where crossing delivery was skipped because no
    /// in-flight crossing had matured.
    pub deliveries_elided: u64,
    /// (shard, slice) pairs where the shard had no event due within
    /// the slice — advancing it was a bare clock bump. Counted exactly
    /// once per planned slice, so slice fusion — which replaces
    /// several notional slices with one planned one — never
    /// double-counts.
    pub quiescent_shard_slices: u64,
    /// Slices where *every* shard was quiescent, so no thread was
    /// spawned in any mode. A pure plan property, so mode-invariant.
    pub barriers_elided: u64,
    /// Boundaries where the entire exchange was skipped: no shard held
    /// `ROUTE_STREAM` backlog *and* no crossing had matured.
    pub exchanges_skipped: u64,
    /// (bridge, boundary) pairs with at least one crossing in flight
    /// after the drain — the numerator of the dirty-bridge ratio
    /// (denominator: `slices × bridges`).
    pub dirty_bridges: u64,
    /// Threads spawned under [`ParallelMode::Threads`] (always 0 under
    /// Serial, and 0 for any slice with fewer than two busy chunks).
    /// The one mode-*dependent* field.
    pub worker_wakes: u64,
}

impl SliceStats {
    fn absorb(&mut self, other: &SliceStats) {
        self.slices += other.slices;
        self.drains_elided += other.drains_elided;
        self.deliveries_elided += other.deliveries_elided;
        self.quiescent_shard_slices += other.quiescent_shard_slices;
        self.barriers_elided += other.barriers_elided;
        self.exchanges_skipped += other.exchanges_skipped;
        self.dirty_bridges += other.dirty_bridges;
        self.worker_wakes += other.worker_wakes;
    }
}

/// Coordinator-side telemetry handles. Only mode-invariant counters
/// live here (see [`SliceStats`]), so the merged snapshot stays
/// byte-identical across [`ParallelMode`]s.
struct CoordTel {
    tel: Telemetry,
    slices: CounterHandle,
    exchanges_elided: CounterHandle,
    quiescent: CounterHandle,
    barriers_elided: CounterHandle,
    exchanges_skipped: CounterHandle,
    dirty_bridges: CounterHandle,
}

impl CoordTel {
    fn new(tel: &Telemetry) -> Self {
        CoordTel {
            tel: tel.clone(),
            slices: tel.counter(&defs::PDES_SLICES, GLOBAL),
            exchanges_elided: tel.counter(&defs::PDES_EXCHANGES_ELIDED, GLOBAL),
            quiescent: tel.counter(&defs::PDES_QUIESCENT_SHARD_SLICES, GLOBAL),
            barriers_elided: tel.counter(&defs::PDES_BARRIERS_ELIDED, GLOBAL),
            exchanges_skipped: tel.counter(&defs::PDES_EXCHANGES_SKIPPED, GLOBAL),
            dirty_bridges: tel.counter(&defs::PDES_DIRTY_BRIDGES, GLOBAL),
        }
    }
}

/// A multi-segment AmpNet network.
pub struct MultiSegment {
    clusters: Vec<Cluster>,
    bridges: Vec<Bridge>,
    crossing: CrossingSet,
    delivered: Vec<Vec<VecDeque<GlobalDatagram>>>,
    /// Datagrams dropped for having no usable route (counted, so tests
    /// can assert routedness).
    pub unroutable: u64,
    mode: ParallelMode,
    lookahead: Lookahead,
    stats: SliceStats,
    /// Routing memo shared by [`MultiSegment::send_global`] and the
    /// boundary exchange.
    routes: RouteCtx,
    /// Per-shard telemetry handles (one registry per segment, so no
    /// cross-thread interleaving can touch registration order). Empty
    /// until [`MultiSegment::enable_telemetry`].
    shard_tels: Vec<Telemetry>,
    /// Coordinator registry (engine counters); folded last by
    /// [`MultiSegment::merged_metrics_snapshot`].
    coord: Option<CoordTel>,
}

/// Bytes of route header ahead of the payload: destination and source
/// `(segment, node)`.
const ROUTE_HEADER: usize = 4;

fn encode(dst: GlobalAddr, src: GlobalAddr, payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::with_capacity(ROUTE_HEADER + payload.len());
    wire.extend_from_slice(&[dst.segment, dst.node, src.segment, src.node]);
    wire.extend_from_slice(payload);
    wire
}

fn decode(wire: &[u8]) -> Option<(GlobalAddr, GlobalAddr, &[u8])> {
    if wire.len() < ROUTE_HEADER {
        return None;
    }
    Some((
        GlobalAddr {
            segment: wire[0],
            node: wire[1],
        },
        GlobalAddr {
            segment: wire[2],
            node: wire[3],
        },
        &wire[ROUTE_HEADER..],
    ))
}

/// Routing memo carried across boundary exchanges and
/// [`MultiSegment::send_global`] calls. The usable-bridge set is a
/// function of node liveness, which only changes while shards advance
/// or the caller injects a fault — never during an exchange. So it is
/// computed at most once per boundary (lazily: pure final-hop
/// deliveries never pay the two-probes-per-bridge liveness scan) and
/// the per-destination BFS distance tables derived from it are
/// memoized for as long as the set stays identical between boundaries
/// — in steady state each destination segment's BFS runs once, not
/// once per bridge hop or per `send_global`.
#[derive(Default)]
struct RouteCtx {
    /// Usable set (bridge registration indices, ascending) for the
    /// current boundary; `None` until first use within the boundary
    /// (invalidated by [`RouteCtx::new_boundary`]).
    usable: Option<Vec<usize>>,
    /// The usable set the memoized distance tables were built from.
    tables_for: Vec<usize>,
    /// Memoized BFS distances, indexed by destination segment.
    dist_to: Vec<Option<Box<[usize]>>>,
    queue: VecDeque<usize>,
}

impl RouteCtx {
    /// Forget the boundary-local usable set (liveness may have changed
    /// since it was taken). The distance tables stay: they are
    /// revalidated against the fresh set on next use.
    fn new_boundary(&mut self) {
        self.usable = None;
    }

    /// Next-hop router (bridge registration index) for traffic from
    /// `from_seg` toward `dst_seg`: BFS from the destination over the
    /// usable bridges (both router nodes online), then the first usable
    /// bridge (registration order) out of `from_seg` that decreases the
    /// distance. A pure function of liveness, so serial and threaded
    /// execution route identically; the liveness scan is amortized per
    /// boundary and the BFS per liveness change.
    fn route(
        &mut self,
        bridges: &[Bridge],
        clusters: &[Cluster],
        from_seg: u8,
        dst_seg: u8,
    ) -> Option<usize> {
        let usable = self.usable.get_or_insert_with(|| {
            let fresh = usable_bridges(bridges, clusters);
            if fresh != self.tables_for {
                self.tables_for.clone_from(&fresh);
                self.dist_to.clear();
            }
            fresh
        });
        if self.dist_to.len() < clusters.len() {
            self.dist_to.resize(clusters.len(), None);
        }
        let dist = self.dist_to[dst_seg as usize].get_or_insert_with(|| {
            route_distances(bridges, usable, clusters.len(), dst_seg, &mut self.queue)
        });
        first_descending_bridge(bridges, usable, dist, from_seg)
    }
}

/// Registration indices of bridges whose *both* router nodes are
/// online right now (ascending, preserving registration order).
fn usable_bridges(bridges: &[Bridge], clusters: &[Cluster]) -> Vec<usize> {
    let online = |a: GlobalAddr| clusters[a.segment as usize].node_online(a.node);
    bridges
        .iter()
        .enumerate()
        .filter(|(_, br)| online(br.a) && online(br.b))
        .map(|(i, _)| i)
        .collect()
}

/// Hop distances from every segment to `dst_seg` over the `usable`
/// bridges (registration indices into `bridges`; `usize::MAX` =
/// unreachable): BFS from the destination, over the workspace's shared
/// traversal ([`ampnet_topo::pathing::bfs_distances_into`]). Bridges
/// are enumerated in registration order, so the distance field — and
/// every routing decision derived from it — is unchanged from the
/// inline implementation this replaced.
fn route_distances(
    bridges: &[Bridge],
    usable: &[usize],
    n_segments: usize,
    dst_seg: u8,
    queue: &mut VecDeque<usize>,
) -> Box<[usize]> {
    ampnet_topo::pathing::bfs_distances_into(n_segments, dst_seg as usize, queue, |seg, visit| {
        for &i in usable {
            let br = &bridges[i];
            for (x, y) in [(br.a, br.b), (br.b, br.a)] {
                if x.segment as usize == seg {
                    visit(y.segment as usize);
                }
            }
        }
    })
}

/// The first usable bridge (registration order) out of `from_seg`
/// whose far side is strictly closer to the destination `dist` was
/// computed for. Returns the bridge's registration index.
fn first_descending_bridge(
    bridges: &[Bridge],
    usable: &[usize],
    dist: &[usize],
    from_seg: u8,
) -> Option<usize> {
    if dist[from_seg as usize] == usize::MAX {
        return None;
    }
    usable
        .iter()
        .find(|&&i| {
            let br = &bridges[i];
            let remote = if br.a.segment == from_seg {
                br.b
            } else if br.b.segment == from_seg {
                br.a
            } else {
                return false;
            };
            dist[remote.segment as usize] + 1 == dist[from_seg as usize]
        })
        .copied()
}

/// One planned slice: the boundary every shard advances to, plus which
/// shards actually have work before it. One instance is re-planned in
/// place for every slice of a `run_until`, so planning allocates
/// nothing after the first slice.
#[derive(Default)]
struct SlicePlan {
    step_to: SimTime,
    /// `busy[i]` — shard `i` has an event due at or before `step_to`;
    /// advancing a quiescent shard is a bare clock bump.
    busy: Vec<bool>,
    quiescent: u64,
    /// Scratch: every shard's next event time, as peeked for this plan.
    nexts: Vec<Option<SimTime>>,
}

impl SlicePlan {
    /// Plan the next slice; `false` once every shard has reached
    /// `deadline`. Pure function of deterministic shard state (clock
    /// maxima, queue peeks, in-flight crossings), so Serial and Threads
    /// modes plan identical boundary sequences — the whole determinism
    /// argument reduces to this.
    fn next(
        &mut self,
        clusters: &[Cluster],
        crossing: &CrossingSet,
        planner: &SlicePlanner,
        deadline: SimTime,
    ) -> bool {
        let mut now = SimTime::ZERO;
        self.nexts.clear();
        for c in clusters {
            now = now.max(c.now());
            self.nexts.push(c.next_event_time());
        }
        if now >= deadline {
            return false;
        }
        let earliest_event = self.nexts.iter().flatten().copied().min();
        let earliest_crossing = crossing.earliest_after(now);
        let step_to = planner.boundary(now, deadline, earliest_event, earliest_crossing);
        self.step_to = step_to;
        self.busy.clear();
        self.busy
            .extend(self.nexts.iter().map(|nx| nx.is_some_and(|t| t <= step_to)));
        self.quiescent = self.busy.iter().filter(|b| !**b).count() as u64;
        true
    }
}

/// Advance every shard to `plan.step_to`, in chunks of `per`
/// consecutive shards. With fewer than two chunks holding a busy shard
/// there is nothing to overlap and the caller advances them all in
/// segment order — always the case under [`ParallelMode::Serial`],
/// whose one chunk is the whole slice. Otherwise every busy chunk but
/// the last gets a scoped thread, the caller advances the last one,
/// and the end of the scope is the barrier: it joins every thread and
/// re-raises a shard's panic. Returns the number of threads spawned.
fn advance(clusters: &mut [Cluster], plan: &SlicePlan, per: usize) -> u64 {
    let step_to = plan.step_to;
    let run = move |chunk: &mut [Cluster]| chunk.iter_mut().for_each(|c| c.run_until(step_to));
    let is_busy = |flags: &[bool]| flags.contains(&true);
    if plan.busy.chunks(per).filter(|flags| is_busy(flags)).count() < 2 {
        run(clusters);
        return 0;
    }
    let mut spawned = 0;
    std::thread::scope(|scope| {
        let mut mine = None;
        for (chunk, flags) in clusters.chunks_mut(per).zip(plan.busy.chunks(per)) {
            if !is_busy(flags) {
                run(chunk);
            } else if let Some(earlier) = mine.replace(chunk) {
                scope.spawn(move || run(earlier));
                spawned += 1;
            }
        }
        if let Some(last) = mine {
            run(last);
        }
    });
    spawned
}

impl MultiSegment {
    /// Build a network of independent segments (each boots its own
    /// ring); add bridges before sending.
    ///
    /// # Panics
    ///
    /// On a configuration [`Cluster::new`] panics on.
    pub fn new(configs: Vec<ClusterConfig>) -> Self {
        let delivered = configs
            .iter()
            .map(|c| (0..c.n_nodes).map(|_| VecDeque::new()).collect())
            .collect();
        MultiSegment {
            clusters: configs.into_iter().map(Cluster::new).collect(),
            bridges: vec![],
            crossing: CrossingSet::default(),
            delivered,
            unroutable: 0,
            mode: ParallelMode::Serial,
            lookahead: Lookahead::default(),
            stats: SliceStats::default(),
            routes: RouteCtx::default(),
            shard_tels: vec![],
            coord: None,
        }
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.clusters.len()
    }

    /// Access a segment's cluster.
    ///
    /// # Panics
    ///
    /// If `s` is not below [`MultiSegment::n_segments`].
    pub fn segment(&self, s: u8) -> &Cluster {
        &self.clusters[s as usize]
    }

    /// Mutable access (fault injection, app start).
    ///
    /// # Panics
    ///
    /// As [`MultiSegment::segment`].
    pub fn segment_mut(&mut self, s: u8) -> &mut Cluster {
        &mut self.clusters[s as usize]
    }

    /// Select how shards advance. [`ParallelMode::Serial`] is the
    /// default and the reference; `Threads(n)` must agree with it
    /// bit-for-bit (same seed, same digest).
    ///
    /// # Panics
    ///
    /// On `Threads(0)`: no worker would advance the shards. Like a
    /// [`ClusterConfig`](crate::ClusterConfig), the mode is the network
    /// builder's configuration, not a running caller's input.
    pub fn set_parallel_mode(&mut self, mode: ParallelMode) {
        if let ParallelMode::Threads(n) = mode {
            assert!(n >= 1, "Threads(0) has no one to advance the shards");
        }
        self.mode = mode;
    }

    /// Select the slice-sizing policy. [`Lookahead::Adaptive`] is the
    /// default; [`Lookahead::Fixed`] reproduces the fixed-slice engine
    /// exactly (the reference `tests/parallel_equivalence.rs` runs
    /// beside it). Either policy is bit-identical across
    /// [`ParallelMode`]s for the same seed.
    pub fn set_lookahead(&mut self, policy: Lookahead) {
        self.lookahead = policy;
    }

    /// The active [`Lookahead`] policy.
    pub fn lookahead(&self) -> Lookahead {
        self.lookahead
    }

    /// Accumulated engine counters across every `run_until` call so
    /// far. See [`SliceStats`] for which fields are mode-invariant.
    pub fn slice_stats(&self) -> SliceStats {
        self.stats
    }

    /// The conservative-PDES lookahead bound: the smallest one-way
    /// bridge latency (None while no bridges exist). Slices no longer
    /// than this never quantise a cross-segment interaction.
    pub fn min_bridge_latency(&self) -> Option<SimDuration> {
        self.bridges.iter().map(|b| b.latency).min()
    }

    /// Connect two segments with a router pair.
    ///
    /// # Panics
    ///
    /// On a bridge no network can carry: both ends on one segment, a
    /// zero `latency` (the PDES lookahead is the smallest bridge
    /// latency, and a zero one leaves none), or an end whose segment or
    /// node the network was not built with. Bridges are configuration,
    /// as [`MultiSegment::set_parallel_mode`]'s mode is.
    pub fn add_bridge(&mut self, a: GlobalAddr, b: GlobalAddr, latency: SimDuration) {
        assert_ne!(a.segment, b.segment, "bridges join distinct segments");
        assert!(latency.as_nanos() > 0, "a zero-latency bridge has no lookahead");
        for end in [a, b] {
            assert!(self.knows(end), "bridge endpoint {end:?} is not in the network");
        }
        self.bridges.push(Bridge { a, b, latency });
        self.crossing.ensure(self.bridges.len());
    }

    /// Enable telemetry with one *private* registry per segment (shard
    /// confinement: a thread only ever records into the shard it is
    /// advancing). [`MultiSegment::merged_metrics_snapshot`] folds
    /// them deterministically.
    pub fn enable_telemetry(&mut self, flight_capacity: usize) {
        self.shard_tels = self
            .clusters
            .iter_mut()
            .map(|c| {
                let tel = Telemetry::new(flight_capacity);
                c.enable_telemetry_with(&tel);
                tel
            })
            .collect();
        let coord = Telemetry::new(flight_capacity);
        self.enable_coordinator_telemetry_with(&coord);
    }

    /// Register the coordinator's engine counters (slices, elided
    /// exchanges, quiescent shard-slices) on an existing registry. All
    /// of them are mode-invariant — see [`SliceStats`] — so merged
    /// snapshots stay byte-identical across [`ParallelMode`]s.
    pub fn enable_coordinator_telemetry_with(&mut self, tel: &Telemetry) {
        self.coord = Some(CoordTel::new(tel));
    }

    /// Enable the milestone trace on every segment (needed for
    /// [`MultiSegment::digest`] to be meaningful).
    pub fn enable_traces(&mut self, capacity: usize) {
        for c in &mut self.clusters {
            c.enable_trace(capacity);
        }
    }

    /// Cluster-of-clusters metrics: every shard's gauges refreshed,
    /// then the per-shard registries folded in segment order (counters
    /// and gauges sum, histograms merge). Byte-identical for the same
    /// seed under any [`ParallelMode`]. Empty unless
    /// [`MultiSegment::enable_telemetry`] ran.
    pub fn merged_metrics_snapshot(&self) -> MetricsSnapshot {
        for c in &self.clusters {
            c.publish_metrics();
        }
        let mut regs = self.shard_tels.clone();
        if let Some(coord) = &self.coord {
            regs.push(coord.tel.clone());
        }
        Telemetry::merge_shards(&regs)
    }

    /// Deterministic digest of the whole network: each segment's trace
    /// digest folded in segment order, plus the unroutable count. The
    /// serial/threaded equivalence tests compare exactly this.
    pub fn digest(&self) -> u64 {
        let mut f = Fnv64::new();
        for c in &self.clusters {
            f.fold_u64(c.trace().digest());
        }
        f.fold_u64(self.unroutable);
        f.finish()
    }

    /// Total simulation events processed across all shards (the
    /// scaling benchmark's throughput numerator).
    pub fn events_processed(&self) -> u64 {
        self.clusters.iter().map(|c| c.events_processed()).sum()
    }

    /// Does the network have this address?
    fn knows(&self, a: GlobalAddr) -> bool {
        self.delivered
            .get(a.segment as usize)
            .is_some_and(|nodes| (a.node as usize) < nodes.len())
    }

    /// Send a globally-addressed datagram. One whose sender or
    /// destination the network does not have is counted in
    /// [`MultiSegment::unroutable`]; one addressed to its own sender is
    /// delivered on the spot.
    pub fn send_global(&mut self, src: GlobalAddr, dst: GlobalAddr, payload: &[u8]) {
        if !self.knows(src) || !self.knows(dst) {
            self.unroutable += 1;
            return;
        }
        let wire = encode(dst, src, payload);
        if src == dst {
            self.deliver(dst, src, wire);
        } else if src.segment == dst.segment {
            self.clusters[src.segment as usize].send_message(
                src.node,
                dst.node,
                ROUTE_STREAM,
                &wire,
            );
        } else {
            // Faults may have been injected since the last boundary.
            self.routes.new_boundary();
            let now = self.clusters[src.segment as usize].now();
            self.forward(src, dst, wire, now);
        }
    }

    /// Pop the next delivered global datagram at an address (`None`
    /// at one the network does not have).
    pub fn pop_global(&mut self, at: GlobalAddr) -> Option<GlobalDatagram> {
        self.delivered
            .get_mut(at.segment as usize)?
            .get_mut(at.node as usize)?
            .pop_front()
    }

    /// Final hop: `wire` minus its route header is the payload
    /// delivered at `at`. A datagram already held by its destination (a
    /// self-addressed send, a crossing whose ingress router is the
    /// destination) comes straight here — a ring strips a frame
    /// addressed to its own sender.
    fn deliver(&mut self, at: GlobalAddr, src: GlobalAddr, mut wire: Vec<u8>) {
        wire.drain(..ROUTE_HEADER);
        self.delivered[at.segment as usize][at.node as usize]
            .push_back(GlobalDatagram { src, payload: wire });
    }

    /// Move `wire` one step toward the segment of `dst` from the node
    /// `from`: straight across the bridge (marking it dirty) when
    /// `from` is the router [`RouteCtx::route`] picks, over the local
    /// ring to that router otherwise. No usable route: counted.
    fn forward(&mut self, from: GlobalAddr, dst: GlobalAddr, wire: Vec<u8>, now: SimTime) {
        let Some(bi) = self
            .routes
            .route(&self.bridges, &self.clusters, from.segment, dst.segment)
        else {
            self.unroutable += 1;
            return;
        };
        let br = self.bridges[bi];
        let (local, remote) = if br.a.segment == from.segment {
            (br.a, br.b)
        } else {
            (br.b, br.a)
        };
        if local.node == from.node {
            let crossing = InFlight {
                deliver_at: now + br.latency,
                ingress: remote,
                wire,
            };
            self.crossing.push(bi, crossing);
        } else {
            self.clusters[from.segment as usize].send_message(
                from.node,
                local.node,
                ROUTE_STREAM,
                &wire,
            );
        }
    }

    /// Pull ROUTE_STREAM datagrams out of every node's inbox: deliver
    /// finals, forward the rest. Iteration order — segment ascending,
    /// node ascending, FIFO within an inbox — is the deterministic
    /// exchange order.
    fn drain_route_streams(&mut self, now: SimTime) {
        for seg in 0..self.clusters.len() {
            // Whole segment clean: skip its node loop outright.
            if self.clusters[seg].pending_messages_on(ROUTE_STREAM) == 0 {
                continue;
            }
            for node in 0..self.clusters[seg].n_nodes() as u8 {
                while let Some(d) = self.clusters[seg].pop_message_on(node, ROUTE_STREAM) {
                    let Some((dst, src, _)) = decode(&d.payload) else {
                        continue;
                    };
                    let here = GlobalAddr {
                        segment: seg as u8,
                        node,
                    };
                    if dst == here {
                        self.deliver(here, src, d.payload);
                    } else if dst.segment == here.segment {
                        // Mis-delivered within segment (should not
                        // happen: unicast goes straight to the node).
                        self.clusters[seg].send_message(node, dst.node, ROUTE_STREAM, &d.payload);
                    } else {
                        // This node is a router on the path.
                        self.forward(here, dst, d.payload, now);
                    }
                }
            }
        }
    }

    /// Inject matured crossings into their ingress segment: the merge
    /// over *dirty* bridges, in bridge registration order, FIFO within
    /// each queue. Clean bridges (empty queues) cost one `front` peek;
    /// a multi-hop re-cross pushed during the merge lands at
    /// `now + latency > now` and is therefore never reprocessed within
    /// the same boundary, wherever its target queue sits in the order.
    fn deliver_crossings(&mut self, now: SimTime) {
        for b in 0..self.crossing.per_bridge.len() {
            while let Some(x) = self.crossing.pop_matured(b, now) {
                let Some((dst, src, _)) = decode(&x.wire) else {
                    continue;
                };
                let cluster = &mut self.clusters[x.ingress.segment as usize];
                if !cluster.node_online(x.ingress.node) {
                    // Router died while the frame crossed; the
                    // originator will re-send at the application
                    // layer. Count it.
                    self.unroutable += 1;
                } else if dst == x.ingress {
                    self.deliver(dst, src, x.wire);
                } else if dst.segment == x.ingress.segment {
                    // Final segment: router forwards to the
                    // destination.
                    cluster.send_message(x.ingress.node, dst.node, ROUTE_STREAM, &x.wire);
                } else {
                    // Multi-hop: route onward from the ingress router.
                    self.forward(x.ingress, dst, x.wire, now);
                }
            }
        }
    }

    /// The boundary exchange at `step_to`. Elision: draining is a
    /// no-op unless some shard holds ROUTE_STREAM backlog (O(shards)
    /// reads), delivery is a no-op unless a dirty bridge holds a
    /// matured crossing (one front peek per bridge) — all deterministic
    /// state, so the elision decisions are mode-invariant (and under
    /// `Lookahead::Fixed` eliding changes nothing at all). When both
    /// halves elide, the whole exchange was a proven no-op: counted as
    /// skipped.
    fn exchange_at(
        &mut self,
        step_to: SimTime,
        planner: &mut SlicePlanner,
        tally: &mut SliceStats,
    ) {
        // Liveness cannot change during the exchange, so one lazily
        // computed usable-bridge set serves both phases; the distance
        // tables memoized in `routes` survive boundaries until the set
        // changes.
        self.routes.new_boundary();
        let any_backlog = self
            .clusters
            .iter()
            .any(|c| c.pending_messages_on(ROUTE_STREAM) > 0);
        if any_backlog {
            self.drain_route_streams(step_to);
        } else {
            tally.drains_elided += 1;
        }
        // Crossings queued by the drain just now mature at
        // `step_to + latency` (latency > 0), never at `step_to`
        // itself, so checking after the drain misses nothing.
        let any_matured = self.crossing.any_matured(step_to);
        if any_matured {
            self.deliver_crossings(step_to);
        } else {
            tally.deliveries_elided += 1;
        }
        if !any_backlog && !any_matured {
            tally.exchanges_skipped += 1;
        }
        tally.dirty_bridges += self.crossing.dirty_count();
        planner.note_exchange(any_backlog || any_matured);
        tally.slices += 1;
    }

    /// Advance every segment in lockstep to `deadline`, moving bridge
    /// traffic between slices. The [`SlicePlanner`] sizes each slice
    /// (at most `slice` under [`Lookahead::Fixed`], adaptively grown —
    /// and fused through established quiet phases — under
    /// [`Lookahead::Adaptive`]); boundaries are additionally placed at
    /// crossing maturity instants and at `deadline`. Under
    /// [`ParallelMode::Threads`] the busy chunks of each slice advance
    /// concurrently on scoped threads (see `advance`); the exchange
    /// between slices is always performed by this thread in
    /// deterministic order, runs its delivery merge only over dirty
    /// bridges, and is skipped outright when it provably has nothing
    /// to move.
    pub fn run_until(&mut self, deadline: SimTime, slice: SimDuration) {
        assert!(slice.as_nanos() > 0, "slice must be positive");
        if self.clusters.is_empty() {
            return;
        }
        let chunks = match self.mode {
            ParallelMode::Serial => 1,
            // More chunks than shards would be empty ones.
            ParallelMode::Threads(n) => n.min(self.clusters.len()),
        };
        let per = self.clusters.len().div_ceil(chunks);
        let mut planner = SlicePlanner::new(slice, self.lookahead);
        let mut tally = SliceStats::default();
        let mut plan = SlicePlan::default();
        while plan.next(&self.clusters, &self.crossing, &planner, deadline) {
            tally.quiescent_shard_slices += plan.quiescent;
            if plan.quiescent == self.clusters.len() as u64 {
                tally.barriers_elided += 1;
            }
            tally.worker_wakes += advance(&mut self.clusters, &plan, per);
            self.exchange_at(plan.step_to, &mut planner, &mut tally);
        }
        self.stats.absorb(&tally);
        if let Some(coord) = &self.coord {
            coord.tel.add(coord.slices, tally.slices);
            coord
                .tel
                .add(coord.exchanges_elided, tally.drains_elided + tally.deliveries_elided);
            coord.tel.add(coord.quiescent, tally.quiescent_shard_slices);
            coord.tel.add(coord.barriers_elided, tally.barriers_elided);
            coord.tel.add(coord.exchanges_skipped, tally.exchanges_skipped);
            coord.tel.add(coord.dirty_bridges, tally.dirty_bridges);
        }
    }

    /// Convenience: run for a duration with a default 10 µs slice.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self
            .clusters
            .iter()
            .map(|c| c.now())
            .max()
            .unwrap_or(SimTime::ZERO)
            + d;
        self.run_until(deadline, SimDuration::from_micros(10));
    }
}
