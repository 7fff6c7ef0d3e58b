//! Host memory follows what the simulated network holds. Counted, not
//! timed, so each claim holds on any host:
//!
//! * a node's cache replica holds no bytes for a region until a write
//!   stores into it (`NetworkCache::resident_bytes`; when every replica
//!   zero-filled its regions at construction, the same count was
//!   65,536 bytes per node from the start);
//! * a queued frame costs its 24-byte head, and only a DMA frame also a
//!   64-byte body (`FrameArena::resident_bytes`; when every frame took
//!   a slot sized for the largest DMA cell, the count was 84 bytes per
//!   frame);
//! * the descriptor a transit buffer or stream queue holds for each
//!   queued frame is 16 bytes (`WireFrame`; with `u16` size fields it
//!   was 20).

use ampnet::core::{
    Cluster, ClusterConfig, Component, Features, JoinRequest, NodeId, SimDuration, Version,
};
use ampnet::packet::{FrameArena, MAX_DMA_PAYLOAD};
use ampnet::phy::LinkParams;
use ampnet::ring::{Segment, SegmentParams, WireFrame};

const NODES: usize = 32;
/// `ClusterConfig::small`'s one 64 KiB region.
const REGION_BYTES: u64 = 64 * 1024;
/// One frame head: the control word and the 8-byte field after it.
const HEAD_BYTES: usize = 24;

fn resident(c: &Cluster) -> Vec<u64> {
    (0..NODES as u8)
        .map(|n| c.cache(n).resident_bytes())
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
    c.cache_write(0, 0, 4096, b"first byte stored");
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
        &*c.cache(5).read(0, 4096, 17).unwrap(),
        b"first byte stored"
    );
    assert!(c.caches_converged());
}

/// `ring_saturated`'s segment: every node broadcasts 3-word cells at
/// 1.5× the ring's capacity, so the stream queues hold a backlog of
/// frames that grows for the whole run — and not one of them is DMA.
#[test]
fn a_saturated_ring_of_fixed_cells_holds_heads_and_no_bodies() {
    let params = SegmentParams {
        n_nodes: 8,
        link: LinkParams::gigabit(25.0),
        ..Default::default()
    };
    let mut seg = Segment::new(params, 0xF007);
    seg.all_to_all_broadcast(1.5);
    seg.run_for(SimDuration::from_millis(5));
    let arena = seg.arena();
    assert!(
        arena.capacity() > 10_000,
        "the backlog is {} frames",
        arena.capacity()
    );
    assert_eq!(arena.resident_bytes(), HEAD_BYTES * arena.capacity());
    // Each of those frames is queued as one descriptor.
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
