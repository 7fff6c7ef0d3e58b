//! MPI-style parallel computation over AmpNet (slide 12: MPI/PVM run
//! above the AmpNet driver).
//!
//! ```text
//! cargo run --release --example parallel_reduce
//! ```
//!
//! Nine ranks each own a slice of a vector, compute a partial sum,
//! synchronize at a barrier, then all-reduce the partials. One rank's
//! node loses power right after contributing — its broadcasts are
//! already replicated, so the computation completes on the healed
//! ring with the dead rank's contribution intact.

use ampnet_core::{Cluster, ClusterConfig, Component, NodeId, ReduceOp, SimDuration};

fn main() {
    // 9 nodes, 9 ranks; rank 8's node will die mid-computation.
    let n = 9u8;
    let mut cluster = Cluster::new(ClusterConfig::small(n as usize).with_seed(4242));
    cluster.run_for(SimDuration::from_millis(5));
    println!("ring up: {} nodes", cluster.ring().len());

    // The data: 0..900, sliced 100 per rank.
    let data: Vec<u64> = (0..900).collect();
    let expect: u64 = data.iter().sum();

    // Phase 1: everyone computes a partial, enters the barrier AND
    // contributes to the all-reduce.
    let mut partials = vec![0u64; n as usize];
    for rank in 0..n {
        let slice = &data[rank as usize * 100..(rank as usize + 1) * 100];
        partials[rank as usize] = slice.iter().sum();
        cluster.coll_barrier(rank, 1);
        cluster.coll_allreduce(rank, 2, partials[rank as usize]);
    }
    // Chaos: rank 8's node loses power 30 µs later — after its
    // broadcasts hit the wire (a ring tour takes ~6 µs).
    cluster.schedule_failure(
        cluster.now() + SimDuration::from_micros(30),
        Component::Node(NodeId(8)),
    );
    cluster.run_for(SimDuration::from_millis(10));
    assert!((0..8u8).all(|r| cluster.coll_barrier_done(r, 1)));
    println!(
        "barrier passed by all surviving ranks (node 8 died; ring re-rostered to {} nodes)",
        cluster.ring().len()
    );

    // Phase 2: the all-reduce completed with ALL NINE contributions —
    // the dead rank's value was already replicated before it died.
    for rank in 0..8u8 {
        let sum = cluster
            .coll_reduce_result(rank, 2, ReduceOp::Sum)
            .expect("reduce completed");
        assert_eq!(sum, expect);
    }
    println!("all-reduce: every survivor computed sum = {expect}, including rank 8's share");

    // Phase 3: gather the partials at rank 0 for a report.
    for rank in 0..n {
        if cluster.node_online(rank) {
            cluster.coll_gather(rank, 3, 0, partials[rank as usize]);
        }
    }
    cluster.run_for(SimDuration::from_millis(5));
    // 8 of 9 gathered (rank 8 is gone and never sent its gather);
    // the root sees the incomplete set as None and reads what arrived.
    assert!(cluster.coll_gather_result(0, 3).is_none(), "rank 8 missing by design");
    println!("gather at rank 0 correctly reports the dead rank as missing");
    assert_eq!(cluster.total_drops(), 0);
    println!("zero drops; the surviving computation never noticed the failure");
}
