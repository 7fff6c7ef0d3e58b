//! Host memory follows what the simulated network holds. Counted, not
//! timed, so each claim holds on any host:
//!
//! * a node's cache replica holds no bytes for a region until a write
//!   stores into it (`NetworkCache::resident_bytes`; when every replica
//!   zero-filled its regions at construction, the same count was
//!   65,536 bytes per node from the start);
//! * a pooled frame costs its 24-byte head, and only a DMA frame also a
//!   64-byte body (`FrameArena::resident_bytes`; when every frame took
//!   a slot sized for the largest DMA cell, the count was 84 bytes per
//!   frame);
//! * the descriptor a transit buffer or stream queue holds for each
//!   queued frame is 16 bytes (`WireFrame`; with `u16` size fields it
//!   was 20), and a queued fixed cell is that descriptor alone: a
//!   saturated ring's backlog of more than 10,000 cells leaves a few
//!   frames per node in the arena (when every cell was pooled at
//!   enqueue, the arena held the whole backlog, a head per cell);
//! * a ring route is a value: cloning a 32-node crossbar ring takes two
//!   allocations, its order and its hop list (one heap list per hop
//!   made it 34), and building a cluster costs at most 4 allocations
//!   per node (6.4 when each hop owned a list and the plant's
//!   per-switch port lists regrew as they were cabled);
//! * attaching telemetry to a 16-node cluster registers its 335
//!   instruments in 18 allocations (59 when the registry found each
//!   instrument in a `BTreeMap`, one tree node per few keys).
//!
//! Allocations are counted on the calling thread only, so the tests of
//! this binary may run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ampnet::core::{
    Cluster, ClusterConfig, Component, Features, JoinRequest, NodeId, SimDuration, Version,
};
use ampnet::packet::{FrameArena, MAX_DMA_PAYLOAD};
use ampnet::phy::LinkParams;
use ampnet::ring::{Segment, SegmentParams, WireFrame};
use ampnet::topo::Plant;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation and reallocation made by the current thread.
struct ThreadCountingAlloc;

fn note_alloc() {
    // `try_with`: a thread being torn down has no counter left.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

#[expect(unsafe_code, reason = "GlobalAlloc requires unsafe")]
// SAFETY: delegates verbatim to the system allocator; the counter is a
// const-initialised thread-local `Cell`, which allocates nothing.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: caller upholds GlobalAlloc's contract; forwarded as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: caller upholds GlobalAlloc's contract; forwarded as-is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from the matching `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: caller upholds GlobalAlloc's contract; forwarded as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ThreadCountingAlloc = ThreadCountingAlloc;

/// `f`'s result and the allocations this thread made while running it.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = THREAD_ALLOCS.with(Cell::get);
    let out = f();
    (out, THREAD_ALLOCS.with(Cell::get) - before)
}

const NODES: usize = 32;
/// `ClusterConfig::small`'s one 64 KiB region.
const REGION_BYTES: u64 = 64 * 1024;
/// One frame head: the control word and the 8-byte field after it.
const HEAD_BYTES: usize = 24;

fn resident(c: &Cluster) -> Vec<u64> {
    (0..NODES as u8)
        .map(|n| c.cache(n).unwrap().resident_bytes())
        .collect()
}

/// DMA bodies an arena ever created.
fn bodies(arena: &FrameArena) -> usize {
    (arena.resident_bytes() - HEAD_BYTES * arena.capacity()) / MAX_DMA_PAYLOAD
}

/// A booted 32-node cluster after one `multiseg_scale` segment's
/// traffic: 96 unicasts every 250 µs for 2 ms, payloads cycling
/// 8/64/256 B. Returns the datagrams sent.
fn booted_after_burst(seed: u64) -> (Cluster, u64) {
    let mut c = Cluster::new(ClusterConfig::small(NODES).with_seed(seed));
    c.run_for(SimDuration::from_millis(2));
    assert!(c.ring_up(), "boot must complete within 2 ms");
    assert_eq!(resident(&c), vec![0; NODES], "booted replicas hold nothing");

    let payload = [0xA5u8; 256];
    let mut sent = 0u64;
    for round in 0..8usize {
        for k in 0..96usize {
            let src = k % NODES;
            let dst = (src + 1 + (round * 7 + k * 13) % (NODES - 1)) % NODES;
            let len = [8, 64, 256][(round + k) % 3];
            c.send_message(src as u8, dst as u8, 0, &payload[..len]);
            sent += 1;
        }
        c.run_for(SimDuration::from_micros(250));
    }
    c.run_for(SimDuration::from_millis(1));
    (c, sent)
}

#[test]
fn cache_memory_is_allocated_by_the_first_write() {
    let (mut c, sent) = booted_after_burst(0xF007);
    let popped: u64 = (0..NODES as u8)
        .map(|n| std::iter::from_fn(|| c.pop_message(n)).count() as u64)
        .sum();
    assert_eq!(popped, sent, "every datagram delivered");
    assert_eq!(
        resident(&c),
        vec![0; NODES],
        "messages alone allocate no cache"
    );

    // Node 5 goes down and misses the one write.
    c.schedule_failure(c.now(), Component::Node(NodeId(5)));
    c.run_for(SimDuration::from_millis(10));
    assert!(!c.node_online(5));
    c.cache_write(0, 0, 4096, b"first byte stored").unwrap();
    c.run_for(SimDuration::from_millis(1));
    for (n, bytes) in resident(&c).into_iter().enumerate() {
        let want = if n == 5 { 0 } else { REGION_BYTES };
        assert_eq!(bytes, want, "node {n} after one write");
    }

    // Rejoining after the write, node 5 holds what its sponsor holds.
    let join = JoinRequest {
        node: 5,
        version: Version::new(1, 0, 0),
        features: Features::NONE,
        diagnostics_pass: true,
    };
    c.schedule_join(c.now(), 5, join);
    c.run_for(SimDuration::from_millis(200));
    assert!(c.node_online(5));
    assert_eq!(resident(&c), vec![REGION_BYTES; NODES]);
    assert_eq!(
        &*c.cache(5).unwrap().read(0, 4096, 17).unwrap(),
        b"first byte stored"
    );
    assert!(c.caches_converged());
}

/// `ring_saturated`'s segment: every node broadcasts 3-word cells at
/// 1.5× the ring's capacity, so the stream queues hold a backlog of
/// cells that grows for the whole run. The backlog waits as values:
/// the arena holds only the frames on the ring — a few per node, on its
/// fiber and in its transit register — and not one of them is DMA.
#[test]
fn a_saturated_ring_of_fixed_cells_holds_heads_and_no_bodies() {
    const RING: usize = 8;
    let params = SegmentParams {
        n_nodes: RING,
        link: LinkParams::gigabit(25.0),
        ..Default::default()
    };
    let mut seg = Segment::new(params, 0xF007);
    seg.all_to_all_broadcast(1.5);
    seg.run_for(SimDuration::from_millis(5));
    let backlog: usize = (0..RING)
        .map(|i| seg.node(i).streams_ref().queued_packets())
        .sum();
    assert!(backlog > 10_000, "the backlog is {backlog} cells");
    let arena = seg.arena();
    assert!(
        arena.capacity() <= 4 * RING,
        "{} frames for a ring of {RING}",
        arena.capacity()
    );
    assert_eq!(arena.resident_bytes(), HEAD_BYTES * arena.capacity());
    // Each queued cell is one descriptor.
    assert_eq!(std::mem::size_of::<WireFrame>(), 16);
}

/// Bodies follow DMA frames: the burst's 64 and 256 B datagrams travel
/// as DMA cells, and no more bodies exist than frames were ever live.
#[test]
fn dma_bodies_never_outnumber_the_peak_of_live_frames() {
    let (c, _) = booted_after_burst(0xF007);
    let arena = c.arena();
    assert!(bodies(arena) > 0, "the burst carries DMA cells");
    assert!(
        bodies(arena) <= arena.stats().peak_live,
        "{} bodies for a peak of {} live frames",
        bodies(arena),
        arena.stats().peak_live
    );
}

#[test]
fn a_crossbar_ring_clones_in_two_allocations() {
    let ring = Plant::crossbar(NODES, 4, 100.0).largest_ring();
    assert_eq!(ring.len(), NODES);
    let (copy, allocs) = allocations(|| ring.clone());
    assert_eq!(copy, ring);
    assert!(allocs <= 2, "{allocs} allocations to clone a {NODES}-node ring");
}

#[test]
fn a_cluster_builds_in_at_most_four_allocations_per_node() {
    let build = |n: usize| allocations(|| Cluster::new(ClusterConfig::small(n))).1;
    let (small, large) = (build(16), build(32));
    let per_node = (large - small) as f64 / 16.0;
    assert!(
        per_node <= 4.0,
        "{per_node} allocations per node ({small} at 16 nodes, {large} at 32)"
    );
}

/// The 18: the flight ring and the shared handle, two cell chunks, and
/// the registry's position index (6) and instrument list (8), each
/// grown by doubling.
#[test]
fn telemetry_attaches_to_a_16_node_cluster_in_18_allocations() {
    let mut c = Cluster::new(ClusterConfig::small(16));
    let ((), allocs) = allocations(|| c.enable_telemetry(1024));
    assert!(allocs <= 18, "{allocs} allocations to attach telemetry to 16 nodes");
}
