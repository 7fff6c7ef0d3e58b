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
//! [`ParallelMode::Threads`] the shards advance concurrently on a
//! scoped worker pool synchronized by a sense-reversing *epoch gate*
//! (see `EpochGate`) — then the coordinator performs the *boundary
//! exchange*: route-stream inboxes are drained in deterministic
//! `(segment, node, FIFO seq)` order and matured bridge crossings
//! injected per *dirty* bridge in bridge-registration order.
//!
//! Why determinism survives threads: shards only interact through the
//! exchange. During a slice each cluster is advanced by exactly one
//! worker (shard confinement — its kernel, RNG, trace and telemetry
//! registry are private to the shard), so its state after the slice is
//! a pure function of its state before it, independent of scheduling.
//! The exchange itself always runs single-threaded on the coordinator
//! in a fixed total order. The minimum bridge latency is the classic
//! conservative *lookahead*: a datagram handed to a bridge at one
//! boundary cannot affect the far segment before `latency` has passed,
//! so slices up to that long never miss a causal interaction. (Slices
//! may be *coarser*: inboxes are drained only at boundaries, so the
//! effective crossing time is quantised to the slice either way;
//! crossings are injected exactly at their maturity instant, see
//! [`MultiSegment::run_until`].)
//!
//! # Adaptive lookahead
//!
//! Fixed slices charge the full synchronization price — two gate
//! crossings and an exchange scan — every `slice` nanoseconds, even
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
//!   and published in a single epoch-gate publication instead of
//!   re-planning each slice.
//! * **Quiescent-shard skipping**: a shard with no event due within
//!   the slice does not wake its worker — the coordinator bumps its
//!   clock inline (an O(1) operation) while workers that do have work
//!   run concurrently. Every shard's clock still advances every slice;
//!   only the wake is skipped. When *every* shard is quiescent the
//!   epoch gate is never touched at all (a fully elided barrier,
//!   counted in [`SliceStats::barriers_elided`]).
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

use crate::cluster::Cluster;
use crate::config::ClusterConfig;
use crate::planner::{Lookahead, SlicePlanner};
use ampnet_sim::{Fnv64, SimDuration, SimTime};
use ampnet_telemetry::{defs, CounterHandle, MetricsSnapshot, Telemetry, GLOBAL};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Message stream reserved for inter-segment routing.
pub const ROUTE_STREAM: u8 = 5;

/// A global address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalAddr {
    /// Segment index.
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
    /// A scoped pool of this many worker threads advances the shards
    /// concurrently (worker `w` takes segments `w, w + n, ...`).
    /// Produces bit-identical results to [`ParallelMode::Serial`] for
    /// the same seed — enforced by `tests/parallel_equivalence.rs`.
    Threads(usize),
}

/// Accumulated counters from the lockstep engine, one total per
/// [`MultiSegment`] across all `run_until` calls.
///
/// All fields except [`SliceStats::worker_wakes`] are *mode-invariant*:
/// computed by the coordinator from deterministic simulation state, so
/// they are bit-identical across [`ParallelMode`]s for the same seed
/// (and safe to publish through telemetry). `worker_wakes` depends on
/// the worker count and is reported here only — never in a digest or a
/// merged snapshot.
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
    /// the slice — its clock was bumped without waking a worker.
    /// Counted exactly once per planned slice, at plan consumption
    /// (both drive paths share the tally site), so slice fusion —
    /// which replaces several notional slices with one planned one —
    /// never double-counts.
    pub quiescent_shard_slices: u64,
    /// Slices where *every* shard was quiescent: the epoch gate was
    /// never touched (threaded mode publishes nothing, wakes no one).
    /// A pure plan property, so mode-invariant.
    pub barriers_elided: u64,
    /// Boundaries where the entire exchange was skipped: no shard held
    /// `ROUTE_STREAM` backlog *and* no crossing had matured.
    pub exchanges_skipped: u64,
    /// (bridge, boundary) pairs with at least one crossing in flight
    /// after the drain — the numerator of the dirty-bridge ratio
    /// (denominator: `slices × bridges`).
    pub dirty_bridges: u64,
    /// Worker wake-ups under [`ParallelMode::Threads`] (always 0 under
    /// Serial). The one mode-*dependent* field.
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

/// One shard slot. Workers and the coordinator strictly alternate
/// access (workers only between the two barrier waits of a slice, the
/// coordinator only outside them), so every lock is uncontended — the
/// mutex exists to make that alternation safe, not to arbitrate.
type ShardCell<'a> = Mutex<&'a mut Cluster>;

/// Lock a shard cell. A poisoned cell means a worker panicked mid-run;
/// propagate the panic rather than computing with a half-advanced
/// shard.
fn shard<'g, 'a>(cell: &'g ShardCell<'a>) -> MutexGuard<'g, &'a mut Cluster> {
    cell.lock().expect("shard worker panicked") // lint: allow(panic-freedom): a poisoned cell means a worker panicked mid-slice; propagate instead of computing with a half-advanced shard
}

/// Routing context carried across boundary exchanges. The
/// usable-bridge set is a function of node liveness, which only
/// changes while shards advance — never during an exchange, when
/// every shard is parked at the boundary. So it is computed at most
/// once per boundary (lazily: pure final-hop deliveries never pay the
/// 2-locks-per-bridge liveness scan) and the per-destination BFS
/// distance tables derived from it are memoized for as long as the
/// set stays identical between boundaries — in steady state each
/// destination segment's BFS runs once per `run_until`, not once per
/// bridge hop.
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
    /// Reusable collect buffer for one node's ROUTE_STREAM drain.
    datagrams: Vec<ampnet_services::msg::Datagram>,
}

impl RouteCtx {
    /// Forget the boundary-local usable set (liveness may change while
    /// shards advance to the next boundary). The distance tables stay:
    /// they are revalidated against the fresh set on next use.
    fn new_boundary(&mut self) {
        self.usable = None;
    }

    /// Next hop (bridge registration index) for `from_seg` →
    /// `dst_seg`, identical to [`route_next_hop`] over the current
    /// usable set but with the liveness scan amortized per boundary
    /// and the BFS amortized per liveness change.
    fn route(
        &mut self,
        xch: &Exchange<'_>,
        cells: &[ShardCell<'_>],
        from_seg: u8,
        dst_seg: u8,
    ) -> Option<usize> {
        if self.usable.is_none() {
            let fresh = xch.usable_bridges(cells);
            if fresh != self.tables_for {
                self.tables_for.clone_from(&fresh);
                self.dist_to.iter_mut().for_each(|t| *t = None);
            }
            self.usable = Some(fresh);
        }
        let usable = self.usable.as_deref().expect("filled above"); // lint: allow(panic-freedom): usable is filled by the branch directly above
        if self.dist_to.len() < cells.len() {
            self.dist_to.resize(cells.len(), None);
        }
        let slot = &mut self.dist_to[dst_seg as usize];
        let dist = match slot {
            Some(d) => &**d,
            None => &**slot.insert(route_distances(
                xch.bridges,
                usable,
                cells.len(),
                dst_seg,
                &mut self.queue,
            )),
        };
        first_descending_bridge(xch.bridges, usable, dist, from_seg)
    }
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

/// Next-hop router (bridge registration index) for traffic from
/// `from_seg` toward `dst_seg`, given the currently `usable` bridges
/// (both router nodes online): BFS from the destination, then the
/// first usable bridge (registration order) out of `from_seg` that
/// decreases the distance. Pure function of
/// `usable`/`n_segments`/`from_seg`/`dst_seg`, so serial and threaded
/// execution route identically; [`RouteCtx::route`] is the memoized
/// hot-path equivalent.
fn route_next_hop(
    bridges: &[Bridge],
    usable: &[usize],
    n_segments: usize,
    from_seg: u8,
    dst_seg: u8,
    queue: &mut VecDeque<usize>,
) -> Option<usize> {
    let dist = route_distances(bridges, usable, n_segments, dst_seg, queue);
    first_descending_bridge(bridges, usable, &dist, from_seg)
}

/// The barrier-exchange state: everything the coordinator mutates
/// between slices, split from the shard cells so the *same* exchange
/// code runs under both [`ParallelMode`]s. All methods take the cells
/// and hold at most one shard lock at a time (routing decisions peek
/// at several shards in sequence), which rules out lock-order cycles.
struct Exchange<'a> {
    bridges: &'a [Bridge],
    crossing: &'a mut CrossingSet,
    delivered: &'a mut [Vec<VecDeque<GlobalDatagram>>],
    unroutable: &'a mut u64,
}

impl Exchange<'_> {
    /// Registration indices of bridges whose *both* router nodes are
    /// online right now (ascending, preserving registration order).
    fn usable_bridges(&self, cells: &[ShardCell<'_>]) -> Vec<usize> {
        self.bridges
            .iter()
            .enumerate()
            .filter(|(_, br)| {
                shard(&cells[br.a.segment as usize]).node_online(br.a.node)
                    // lint: allow(lock-discipline): coordinator-only probe while every worker is parked at the slice boundary — both guards are uncontended and no cross-thread order cycle exists
                    && shard(&cells[br.b.segment as usize]).node_online(br.b.node)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Pull ROUTE_STREAM datagrams out of every node's inbox: deliver
    /// finals, queue bridge crossings, forward multi-hop traffic.
    /// Iteration order — segment ascending, node ascending, FIFO
    /// within an inbox — is the deterministic exchange order.
    fn drain_route_streams(
        &mut self,
        cells: &[ShardCell<'_>],
        now: SimTime,
        routes: &mut RouteCtx,
    ) {
        for seg in 0..cells.len() as u8 {
            let n_nodes = {
                let c = shard(&cells[seg as usize]);
                // Whole segment clean: skip its node loop outright.
                if c.pending_messages_on(ROUTE_STREAM) == 0 {
                    continue;
                }
                c.n_nodes() as u8
            };
            for node in 0..n_nodes {
                // Collect with the shard locked, then route with the
                // lock released (routing peeks at other shards).
                let mut datagrams = std::mem::take(&mut routes.datagrams);
                {
                    let mut c = shard(&cells[seg as usize]);
                    while let Some(d) = c.pop_message_on(node, ROUTE_STREAM) {
                        datagrams.push(d);
                    }
                }
                for mut d in datagrams.drain(..) {
                    let Some((dst, src, _)) = decode(&d.payload) else {
                        continue;
                    };
                    let here = GlobalAddr { segment: seg, node };
                    if dst == here {
                        // Final hop: the reassembled buffer becomes the
                        // delivered payload, minus the route header.
                        d.payload.drain(..ROUTE_HEADER);
                        self.delivered[seg as usize][node as usize].push_back(GlobalDatagram {
                            src,
                            payload: d.payload,
                        });
                    } else if dst.segment == seg {
                        // Mis-delivered within segment (should not
                        // happen: unicast goes straight to the node).
                        shard(&cells[seg as usize]).send_message(
                            node,
                            dst.node,
                            ROUTE_STREAM,
                            &d.payload,
                        );
                    } else {
                        // This node is a router on the path: cross the
                        // bridge toward dst, marking its queue dirty.
                        match routes.route(self, cells, seg, dst.segment) {
                            Some(bi) => {
                                let br = self.bridges[bi];
                                let (local, remote) =
                                    if br.a.segment == seg { (br.a, br.b) } else { (br.b, br.a) };
                                if local.node == node {
                                    self.crossing.push(bi, InFlight {
                                        deliver_at: now + br.latency,
                                        ingress: remote,
                                        wire: d.payload,
                                    });
                                } else {
                                    // Reach the proper router first.
                                    shard(&cells[seg as usize]).send_message(
                                        node,
                                        local.node,
                                        ROUTE_STREAM,
                                        &d.payload,
                                    );
                                }
                            }
                            None => *self.unroutable += 1,
                        }
                    }
                }
                routes.datagrams = datagrams;
            }
        }
    }

    /// Inject matured crossings into their ingress segment: the merge
    /// over *dirty* bridges, in bridge registration order, FIFO within
    /// each queue. Clean bridges (empty queues) cost one `is_empty`
    /// peek; a multi-hop re-cross pushed during the merge lands at
    /// `now + latency > now` and is therefore never reprocessed within
    /// the same boundary, wherever its target queue sits in the order.
    fn deliver_crossings(
        &mut self,
        cells: &[ShardCell<'_>],
        now: SimTime,
        routes: &mut RouteCtx,
    ) {
        for b in 0..self.crossing.per_bridge.len() {
            while self.crossing.per_bridge[b]
                .front()
                .is_some_and(|x| x.deliver_at <= now)
            {
                let Some(x) = self.crossing.per_bridge[b].pop_front() else {
                    break;
                };
                let Some((dst, _src, _payload)) = decode(&x.wire) else {
                    continue;
                };
                let seg = x.ingress.segment as usize;
                if !shard(&cells[seg]).node_online(x.ingress.node) {
                    // Router died while the frame crossed; re-route
                    // from any online node... the originator will
                    // re-send at the application layer. Count it.
                    *self.unroutable += 1;
                    continue;
                }
                if dst.segment == x.ingress.segment {
                    // Final segment: router forwards to the
                    // destination (or delivers to itself).
                    shard(&cells[seg]).send_message(
                        x.ingress.node,
                        dst.node,
                        ROUTE_STREAM,
                        &x.wire,
                    );
                } else {
                    // Multi-hop: route onward from the ingress router.
                    match routes.route(self, cells, x.ingress.segment, dst.segment) {
                        Some(bi) => {
                            let br = self.bridges[bi];
                            let (local, remote) = if br.a.segment == x.ingress.segment {
                                (br.a, br.b)
                            } else {
                                (br.b, br.a)
                            };
                            if local.node == x.ingress.node {
                                self.crossing.push(bi, InFlight {
                                    deliver_at: now + br.latency,
                                    ingress: remote,
                                    wire: x.wire,
                                });
                            } else {
                                shard(&cells[seg]).send_message(
                                    x.ingress.node,
                                    local.node,
                                    ROUTE_STREAM,
                                    &x.wire,
                                );
                            }
                        }
                        None => *self.unroutable += 1,
                    }
                }
            }
        }
    }
}

/// The sense-reversing epoch gate: the single synchronization
/// primitive of the threaded drive, replacing the old per-worker
/// channel wake plus shared done-channel protocol (two blocking
/// channel crossings per worker per slice).
///
/// Protocol. The coordinator *publishes* a slice by storing the
/// boundary (`step`), the busy-worker mask (`busy`), a zeroed `done`
/// count, and then — the sense reversal — advancing the monotone
/// `epoch` word (release ordering makes the other stores visible to
/// anyone who observes the new epoch). Workers park on the epoch word
/// (bounded spin, then [`std::thread::park`]); a worker that observes
/// an epoch it has not completed re-reads `busy`/`step`, **re-checks
/// the epoch word** (a changed epoch means the publication was torn
/// across the reads — retry), advances its partition if its busy bit
/// is set, and bumps `done`. The coordinator waits until `done`
/// reaches the popcount of `busy`.
///
/// What the gate buys over the channels it replaces:
/// * a worker whose partition is fully quiescent is never woken *and
///   never contributes a crossing* — the coordinator bumps its shards
///   inline and the worker stays parked through any number of epochs
///   (it catches up by observing only the latest);
/// * a fully-quiescent slice touches the gate not at all (no store,
///   no unpark — [`SliceStats::barriers_elided`]);
/// * a fused quiet window ([`crate::FUSE_FACTOR`] notional slices) is
///   one publication.
///
/// Unpark tokens are sticky, so the publish-then-unpark order has no
/// lost-wake window; a stale token at worst costs one spurious loop
/// iteration (the worker re-parks on an unchanged epoch). `done` is
/// bumped through a drop guard, so a panicking worker still releases
/// the coordinator, which then propagates the panic through the
/// poisoned shard mutex instead of spinning forever.
struct EpochGate {
    /// Monotone publication counter (the sense word).
    epoch: AtomicU64,
    /// Boundary instant (nanos) published with the current epoch.
    step: AtomicU64,
    /// Bit `w`: worker `w` owns at least one busy shard this epoch.
    /// A `u64` caps the pool at 64 workers (enforced in `run_until`).
    busy: AtomicU64,
    /// Workers finished with the current epoch.
    done: AtomicU64,
    /// Set (before the final epoch bump) to shut the pool down.
    shutdown: AtomicBool,
}

impl EpochGate {
    fn new() -> Self {
        EpochGate {
            epoch: AtomicU64::new(0),
            step: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            done: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Publish a slice: `mask` must be non-zero (an all-quiescent
    /// slice elides the gate instead). Returns the new epoch.
    fn publish(&self, step: SimTime, mask: u64) -> u64 {
        debug_assert_ne!(mask, 0, "publishing an empty slice");
        self.step.store(step.0, Ordering::Relaxed);
        self.done.store(0, Ordering::Relaxed);
        self.busy.store(mask, Ordering::Relaxed);
        // The release bump orders every store above before the epoch
        // observation that makes workers act on them.
        self.epoch.fetch_add(1, Ordering::Release) + 1
    }

    /// Coordinator-side wait until `finished` workers completed the
    /// current epoch. Bounded spin, then yield: slices are short, but
    /// on an oversubscribed host the workers need the core more than
    /// a spinning coordinator does.
    fn await_done(&self, finished: u64) {
        let mut spins = 0u32;
        while self.done.load(Ordering::Acquire) < finished {
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Worker-side wait for an epoch newer than `seen`. Bounded spin,
    /// then park (tokens make the race with `unpark` benign).
    fn await_epoch(&self, seen: u64) -> u64 {
        let mut spins = 0u32;
        loop {
            let e = self.epoch.load(Ordering::Acquire);
            if e != seen {
                return e;
            }
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
    }
}

/// Bumps a counter on drop: keeps `EpochGate::await_done` finite even
/// when a worker's slice panics (see the gate's protocol doc).
struct DoneGuard<'g>(&'g AtomicU64);

impl Drop for DoneGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Release);
    }
}

/// One planned slice: the boundary every shard advances to, plus which
/// shards actually have work before it. One instance is re-planned in
/// place for every slice of a `run_until`, so planning allocates
/// nothing after the first slice.
#[derive(Default)]
struct SlicePlan {
    step_to: SimTime,
    /// `busy[i]` — shard `i` has an event due at or before `step_to`
    /// and must be advanced by a worker; quiescent shards only need a
    /// clock bump.
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
        cells: &[ShardCell<'_>],
        crossing: &CrossingSet,
        planner: &SlicePlanner,
        deadline: SimTime,
    ) -> bool {
        let mut now = SimTime::ZERO;
        self.nexts.clear();
        for cell in cells {
            let mut c = shard(cell);
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

impl MultiSegment {
    /// Build a network of independent segments (each boots its own
    /// ring); add bridges before sending.
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
            shard_tels: vec![],
            coord: None,
        }
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.clusters.len()
    }

    /// Access a segment's cluster.
    pub fn segment(&self, s: u8) -> &Cluster {
        &self.clusters[s as usize]
    }

    /// Mutable access (fault injection, app start).
    pub fn segment_mut(&mut self, s: u8) -> &mut Cluster {
        &mut self.clusters[s as usize]
    }

    /// Select how shards advance. [`ParallelMode::Serial`] is the
    /// default and the reference; `Threads(n)` must agree with it
    /// bit-for-bit (same seed, same digest).
    pub fn set_parallel_mode(&mut self, mode: ParallelMode) {
        if let ParallelMode::Threads(n) = mode {
            assert!(n >= 1, "Threads(0) has no one to advance the shards");
        }
        self.mode = mode;
    }

    /// The active [`ParallelMode`].
    pub fn parallel_mode(&self) -> ParallelMode {
        self.mode
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
    pub fn add_bridge(&mut self, a: GlobalAddr, b: GlobalAddr, latency: SimDuration) {
        assert_ne!(a.segment, b.segment, "bridges join distinct segments");
        assert!(latency.as_nanos() > 0, "a zero-latency bridge has no lookahead");
        self.bridges.push(Bridge { a, b, latency });
        self.crossing.ensure(self.bridges.len());
    }

    /// Enable telemetry with one *private* registry per segment (shard
    /// confinement: a worker thread only ever records into the shard it
    /// is advancing). [`MultiSegment::merged_metrics_snapshot`] folds
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

    /// Send a globally-addressed datagram.
    pub fn send_global(&mut self, src: GlobalAddr, dst: GlobalAddr, payload: &[u8]) {
        let wire = encode(dst, src, payload);
        if src.segment == dst.segment {
            self.clusters[src.segment as usize].send_message(
                src.node,
                dst.node,
                ROUTE_STREAM,
                &wire,
            );
            return;
        }
        let usable: Vec<usize> = self
            .bridges
            .iter()
            .enumerate()
            .filter(|(_, br)| {
                self.clusters[br.a.segment as usize].node_online(br.a.node)
                    && self.clusters[br.b.segment as usize].node_online(br.b.node)
            })
            .map(|(i, _)| i)
            .collect();
        let mut queue = VecDeque::new();
        match route_next_hop(
            &self.bridges,
            &usable,
            self.clusters.len(),
            src.segment,
            dst.segment,
            &mut queue,
        ) {
            Some(bi) => {
                let br = self.bridges[bi];
                let router = if br.a.segment == src.segment { br.a } else { br.b };
                if router.node == src.node {
                    // The sender IS the router: queue straight across
                    // (marking the bridge dirty).
                    let now = self.clusters[src.segment as usize].now();
                    let egress = if br.a.segment == src.segment { br.b } else { br.a };
                    self.crossing.push(bi, InFlight {
                        deliver_at: now + br.latency,
                        ingress: egress,
                        wire,
                    });
                } else {
                    self.clusters[src.segment as usize].send_message(
                        src.node,
                        router.node,
                        ROUTE_STREAM,
                        &wire,
                    );
                }
            }
            None => self.unroutable += 1,
        }
    }

    /// Pop the next delivered global datagram at an address.
    pub fn pop_global(&mut self, at: GlobalAddr) -> Option<GlobalDatagram> {
        self.delivered[at.segment as usize][at.node as usize].pop_front()
    }

    /// Advance every segment in lockstep to `deadline`, moving bridge
    /// traffic between slices. The [`SlicePlanner`] sizes each slice
    /// (at most `slice` under [`Lookahead::Fixed`], adaptively grown —
    /// and fused through established quiet phases — under
    /// [`Lookahead::Adaptive`]); boundaries are additionally placed at
    /// crossing maturity instants and at `deadline`. Under
    /// [`ParallelMode::Threads`] the busy shards of each slice advance
    /// concurrently behind the sense-reversing `EpochGate` (quiescent
    /// shards get an inline clock bump without a publication; fully
    /// quiescent slices never touch the gate); the exchange between
    /// slices is always performed by this thread in deterministic
    /// order, runs its delivery merge only over dirty bridges, and is
    /// skipped outright when it provably has nothing to move.
    pub fn run_until(&mut self, deadline: SimTime, slice: SimDuration) {
        assert!(slice.as_nanos() > 0, "slice must be positive");
        if self.clusters.is_empty() {
            return;
        }
        let workers = match self.mode {
            ParallelMode::Serial => 1,
            // The epoch gate's busy mask caps the pool at 64 — far
            // beyond any host this runs on, and more workers than
            // shards would idle anyway.
            ParallelMode::Threads(n) => n.min(self.clusters.len()).clamp(1, 64),
        };
        let mut planner = SlicePlanner::new(slice, self.lookahead);
        let mut tally = SliceStats::default();
        // Split borrows: the shard cells take `clusters`; the exchange
        // takes everything else. Serial and threaded paths then share
        // all slice/exchange code.
        self.crossing.ensure(self.bridges.len());
        let cells: Vec<ShardCell<'_>> = self.clusters.iter_mut().map(Mutex::new).collect();
        let mut xch = Exchange {
            bridges: &self.bridges,
            crossing: &mut self.crossing,
            delivered: &mut self.delivered,
            unroutable: &mut self.unroutable,
        };
        // The boundary exchange, shared by both drive paths. Elision:
        // draining is a no-op unless some shard holds ROUTE_STREAM
        // backlog (O(shards) reads), delivery is a no-op unless a
        // dirty bridge holds a matured crossing (one front peek per
        // bridge) — all deterministic state, so the elision decisions
        // are mode-invariant (and under `Lookahead::Fixed` eliding
        // changes nothing at all). When both halves elide, the whole
        // exchange was a proven no-op: counted as skipped.
        fn exchange_at(
            xch: &mut Exchange<'_>,
            cells: &[ShardCell<'_>],
            step_to: SimTime,
            planner: &mut SlicePlanner,
            tally: &mut SliceStats,
            routes: &mut RouteCtx,
        ) {
            // Liveness cannot change while every shard is parked at
            // this boundary, so one lazily computed usable-bridge set
            // serves both phases; the distance tables memoized in
            // `routes` survive boundaries until the set changes.
            routes.new_boundary();
            let any_backlog = cells
                .iter()
                .any(|c| shard(c).pending_messages_on(ROUTE_STREAM) > 0);
            if any_backlog {
                xch.drain_route_streams(cells, step_to, routes);
            } else {
                tally.drains_elided += 1;
            }
            // Crossings queued by the drain just now mature at
            // `step_to + latency` (latency > 0), never at `step_to`
            // itself, so checking after the drain misses nothing.
            let any_matured = xch.crossing.any_matured(step_to);
            if any_matured {
                xch.deliver_crossings(cells, step_to, routes);
            } else {
                tally.deliveries_elided += 1;
            }
            if !any_backlog && !any_matured {
                tally.exchanges_skipped += 1;
            }
            tally.dirty_bridges += xch.crossing.dirty_count();
            planner.note_exchange(any_backlog || any_matured);
            tally.slices += 1;
        }
        let mut routes = RouteCtx::default();
        let mut plan = SlicePlan::default();
        if workers <= 1 {
            while plan.next(&cells, xch.crossing, &planner, deadline) {
                tally.quiescent_shard_slices += plan.quiescent;
                if plan.quiescent == cells.len() as u64 {
                    tally.barriers_elided += 1;
                }
                for cell in &cells {
                    shard(cell).run_until(plan.step_to);
                }
                exchange_at(&mut xch, &cells, plan.step_to, &mut planner, &mut tally, &mut routes);
            }
        } else {
            // Threaded drive: persistent workers parked on the epoch
            // gate. Each slice the coordinator publishes the boundary
            // and the busy-worker mask once, unparks exactly the busy
            // workers, bumps the clocks of every other shard inline
            // (O(1) each — their queues are empty up to the boundary),
            // waits on the done count, then runs the exchange while
            // all workers are parked. Worker `w` owns segments
            // `w, w + n, ...` — a fixed partition, so across slices a
            // shard is only ever touched by its worker or (when the
            // whole partition is quiescent) the coordinator, never two
            // threads in the same slice.
            let gate = EpochGate::new();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let cells = &cells;
                        let gate = &gate;
                        scope.spawn(move || {
                            let mut seen = 0u64;
                            loop {
                                let cur = gate.await_epoch(seen);
                                if gate.shutdown.load(Ordering::Acquire) {
                                    break;
                                }
                                let mask = gate.busy.load(Ordering::Acquire);
                                let step = SimTime(gate.step.load(Ordering::Acquire));
                                if gate.epoch.load(Ordering::Acquire) != cur {
                                    // Torn read: a newer publication
                                    // landed between the loads. Retry
                                    // against the new epoch (`seen` is
                                    // still the last one *completed*).
                                    continue;
                                }
                                if mask & (1u64 << w) != 0 {
                                    let _done = DoneGuard(&gate.done);
                                    let mut i = w;
                                    while i < cells.len() {
                                        shard(&cells[i]).run_until(step);
                                        i += workers;
                                    }
                                }
                                seen = cur;
                            }
                        })
                    })
                    .collect();
                while plan.next(&cells, xch.crossing, &planner, deadline) {
                    tally.quiescent_shard_slices += plan.quiescent;
                    let mut mask = 0u64;
                    for w in 0..workers {
                        let has_busy = (w..cells.len()).step_by(workers).any(|i| plan.busy[i]);
                        if has_busy {
                            mask |= 1u64 << w;
                        } else {
                            // Entire partition quiescent: bump the
                            // clocks here instead of a wake.
                            let mut i = w;
                            while i < cells.len() {
                                shard(&cells[i]).run_until(plan.step_to);
                                i += workers;
                            }
                        }
                    }
                    if mask == 0 {
                        // Fully quiescent slice (or fused window): the
                        // gate is never touched — no publication, no
                        // unpark, no wait.
                        tally.barriers_elided += 1;
                    } else {
                        gate.publish(plan.step_to, mask);
                        let mut woken = 0u64;
                        for (w, h) in handles.iter().enumerate() {
                            if mask & (1u64 << w) != 0 {
                                h.thread().unpark();
                                woken += 1;
                            }
                        }
                        gate.await_done(woken);
                        tally.worker_wakes += woken;
                    }
                    exchange_at(&mut xch, &cells, plan.step_to, &mut planner, &mut tally, &mut routes);
                }
                gate.shutdown.store(true, Ordering::Release);
                gate.epoch.fetch_add(1, Ordering::Release);
                for h in &handles {
                    h.thread().unpark();
                }
            });
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
