//! Long-haul soak test: a 10-node cluster lives through half a second
//! of simulated operation — continuous cache traffic, messaging,
//! collectives, failures, repairs and re-assimilations — with every
//! global invariant checked at each checkpoint.

use ampnet::core::{
    Cluster, ClusterConfig, Component, Features, JoinRequest, NodeId, ReduceOp, SimDuration,
    SwitchId, Version,
};

#[test]
fn half_second_of_cluster_life() {
    let n = 10usize;
    let mut c = Cluster::new(
        ClusterConfig::small(n)
            .with_seed(0x50AC)
            .with_regions(vec![(0, 64 * 1024), (3, 32 * 16)]),
    );
    c.enable_trace(256);
    c.enable_background_sweep(SimDuration::from_millis(2));
    c.run_for(SimDuration::from_millis(5));
    assert!(c.ring_up());
    c.enable_threads(3, 32);

    let mut tag = 0u32;
    let mut msg_count = 0u64;

    // 10 epochs of 50 ms each.
    for epoch in 0..10u32 {
        // Steady work: cache writes, messages, a collective round.
        let value = (epoch as u64 + 1).to_be_bytes();
        for src in 0..n as u8 {
            if c.node_online(src) {
                c.cache_write(src, 0, (src as u32) * 1024, &value).unwrap();
            }
        }

        // Messaging between online pairs. Node 7 dies during epoch 1,
        // so messages touching it that epoch are legitimately lost
        // (sender or receiver gone mid-flight): excluded from the
        // delivery ledger.
        let online: Vec<u8> = (0..n as u8).filter(|&i| c.node_online(i)).collect();
        for w in online.windows(2) {
            c.send_message(w[0], w[1], 0, format!("epoch {epoch} hello").as_bytes());
            let doomed = epoch == 1 && (w[0] == 7 || w[1] == 7);
            if !doomed {
                msg_count += 1;
            }
        }

        // A collective among the full rank set only when everyone is
        // online (ranks are static).
        if online.len() == n {
            tag += 1;
            for &r in &online {
                c.coll_allreduce(r, tag, r as u64);
            }
        }

        // Scenario events per epoch.
        match epoch {
            1 => c.schedule_failure(c.now() + SimDuration::from_millis(3), Component::Node(NodeId(7))),
            3 => c.schedule_failure(
                c.now() + SimDuration::from_millis(1),
                Component::Switch(SwitchId(0)),
            ),
            5 => c.schedule_join(
                c.now(),
                7,
                JoinRequest {
                    node: 7,
                    version: Version::new(1, 0, 1),
                    features: Features::NONE,
                    diagnostics_pass: true,
                },
            ),
            7 => {
                let t = c.now() + SimDuration::from_millis(2);
                c.schedule_repair(t, Component::Switch(SwitchId(0)));
            }
            _ => {}
        }

        c.run_for(SimDuration::from_millis(50));

        // Checkpoint invariants.
        assert!(c.ring_up(), "epoch {epoch}: ring must be up at checkpoint");
        assert_eq!(c.total_drops(), 0, "epoch {epoch}: a packet dropped");
        let exact = c.topology().largest_ring();
        assert_eq!(
            c.ring().len(),
            exact.len(),
            "epoch {epoch}: ring not maximal"
        );
        // Drain messages; all that were sent between online pairs must
        // arrive (both endpoints stayed online through each epoch).
        let mut drained = 0u64;
        for node in 0..n as u8 {
            while let Some(d) = c.pop_message(node) {
                let doomed = epoch == 1 && (d.src == 7 || node == 7);
                if !doomed {
                    drained += 1;
                }
            }
        }
        msg_count = msg_count.saturating_sub(drained);
        // Completed collectives agree everywhere.
        if tag > 0 {
            let results: Vec<Option<u64>> = (0..n as u8)
                .filter(|&i| c.node_online(i))
                .map(|i| c.coll_reduce_result(i, tag, ReduceOp::Sum))
                .collect();
            if results.iter().all(|r| r.is_some()) {
                let first = results[0];
                assert!(results.iter().all(|r| *r == first));
            }
        }
    }

    // End state: node 7 rejoined, switch 0 repaired, everything green.
    assert!(c.node_online(7), "node 7 re-assimilated");
    assert_eq!(c.ring().len(), n, "full ring restored");
    assert!(c.caches_converged(), "replicas agree after the storm");
    assert!(
        c.certifications().all(|cert| cert.passed()),
        "every roster epoch certified"
    );
    assert!(c.roster_history().len() >= 4, "boot + failures + join + repair");
    assert_eq!(msg_count, 0, "all messages between online pairs arrived");
}
