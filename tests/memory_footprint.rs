//! Host memory follows writes: a node's cache replica holds no bytes
//! for a region until a write stores into it. Counted with
//! `NetworkCache::resident_bytes`, not timed, so the claim holds on any
//! host. (When every replica zero-filled its regions at construction,
//! the same count was 65,536 bytes per node from the start.)

use ampnet::core::{
    Cluster, ClusterConfig, Component, Features, JoinRequest, NodeId, SimDuration, Version,
};

const NODES: usize = 32;
/// `ClusterConfig::small`'s one 64 KiB region.
const REGION_BYTES: u64 = 64 * 1024;

fn resident(c: &Cluster) -> Vec<u64> {
    (0..NODES as u8)
        .map(|n| c.cache(n).resident_bytes())
        .collect()
}

#[test]
fn cache_memory_is_allocated_by_the_first_write() {
    let mut c = Cluster::new(ClusterConfig::small(NODES).with_seed(0xF007));
    c.run_for(SimDuration::from_millis(2));
    assert!(c.ring_up(), "boot must complete within 2 ms");
    assert_eq!(resident(&c), vec![0; NODES], "booted replicas hold nothing");

    // One `multiseg_scale` segment's traffic: 96 unicasts every 250 µs
    // for 2 ms, payloads cycling 8/64/256 B.
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
