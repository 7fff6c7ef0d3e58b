//! Workspace integration tests: scenarios spanning every crate through
//! the public `ampnet` facade.

use ampnet::core::{
    Cluster, ClusterConfig, Component, CounterAppConfig, FailoverPolicy, Features, JoinRequest,
    NodeId, RecordLayout, SemStressConfig, SemaphoreAddr, SimDuration, SwitchId, Version,
};

fn booted(n: usize, seed: u64) -> Cluster {
    let mut c = Cluster::new(ClusterConfig::small(n).with_seed(seed));
    c.run_for(SimDuration::from_millis(10));
    assert!(c.ring_up());
    c
}

/// The full paper lifecycle in one scenario: boot → serve → break →
/// heal → failover → rejoin → converge.
#[test]
fn whole_paper_in_one_run() {
    let mut c = booted(8, 101);

    // Serve: messages + cache + records.
    c.send_message(0, 6, 0, b"payload-one");
    c.cache_write(2, 0, 64, b"management database v1").unwrap();
    c.run_for(SimDuration::from_millis(1));
    assert_eq!(c.pop_message(6).unwrap().payload, b"payload-one");

    // Start the failover app.
    let deadline = c.now() + SimDuration::from_millis(50);
    c.start_counter_app(CounterAppConfig {
        members: vec![(1, 95), (4, 60), (5, 85)],
        policy: FailoverPolicy::default(),
        counter_layout: RecordLayout {
            region: 0,
            offset: 8192,
            data_len: 8,
        },
        heartbeat_layout: RecordLayout {
            region: 0,
            offset: 8256,
            data_len: 8,
        },
        deadline,
    })
    .unwrap();

    // Break two things: a switch and the app leader's node.
    c.schedule_failure(c.now() + SimDuration::from_millis(5), Component::Switch(SwitchId(0)));
    c.schedule_failure(c.now() + SimDuration::from_millis(15), Component::Node(NodeId(1)));
    c.run_for(SimDuration::from_millis(80));

    // Healed: ring has the 7 survivors, avoids switch 0.
    assert!(c.ring_up());
    assert_eq!(c.ring().len(), 7);
    assert!(c.ring().hops.iter().all(|h| !h.via.contains(&SwitchId(0))));
    assert_eq!(c.epoch(), 3, "boot + switch heal + node heal");

    // Failover happened to the best-qualified survivor, losslessly.
    let report = c.counter_report().unwrap();
    assert_eq!(report.resumes.len(), 1);
    assert_eq!(report.resumes[0].new_leader, 5, "85 beats 60");
    assert_eq!(report.resumes[0].lost_committed, 0);

    // Rejoin node 1 with a compatible version.
    c.schedule_join(
        c.now(),
        1,
        JoinRequest {
            node: 1,
            version: Version::new(1, 0, 3),
            features: Features::D64_ATOMIC,
            diagnostics_pass: true,
        },
    );
    c.run_for(SimDuration::from_millis(300));
    assert!(c.node_online(1));
    assert_eq!(c.ring().len(), 8);
    assert!(c.caches_converged(), "rejoined replica caught up");
    assert_eq!(c.total_drops(), 0);
}

/// Every subsystem's invariant under a randomized fault storm.
#[test]
fn fault_storm_invariants() {
    for seed in [7u64, 21, 93] {
        let mut c = booted(10, seed);
        // Background traffic.
        for src in 0..10u8 {
            c.cache_write(src, 0, src as u32 * 512, &[src ^ 0x5A; 128])
                .unwrap();
        }
        // A storm of survivable failures.
        let base = c.now();
        c.schedule_failure(base + SimDuration::from_millis(2), Component::Link(NodeId(0), SwitchId(0)));
        c.schedule_failure(base + SimDuration::from_millis(4), Component::Node(NodeId(7)));
        c.schedule_failure(base + SimDuration::from_millis(6), Component::Switch(SwitchId(1)));
        c.schedule_failure(base + SimDuration::from_millis(8), Component::Link(NodeId(3), SwitchId(2)));
        c.run_for(SimDuration::from_millis(60));

        assert!(c.ring_up(), "seed {seed}: ring must heal");
        assert_eq!(c.ring().len(), 9, "seed {seed}: nine survivors");
        assert_eq!(c.total_drops(), 0, "seed {seed}: no drops ever");
        // All survivors converged after replay.
        assert!(c.caches_converged(), "seed {seed}: caches diverged");
        // Ring is exactly the maximal one for the damaged plant.
        let exact = c.topology().largest_ring();
        assert_eq!(c.ring().len(), exact.len(), "seed {seed}: not maximal");
    }
}

/// Semaphores keep excluding while the ring heals underneath them.
#[test]
fn semaphores_survive_healing() {
    let mut c = booted(8, 55);
    c.start_sem_stress(SemStressConfig {
        addr: SemaphoreAddr {
            home: 0,
            region: 0,
            offset: 4096,
        },
        contenders: vec![1, 2, 3, 4],
        rounds: 12,
        crit: SimDuration::from_micros(50),
        backoff: Default::default(),
    });
    // Fail a non-participant node mid-stress.
    c.schedule_failure(c.now() + SimDuration::from_millis(2), Component::Node(NodeId(6)));
    c.run_for(SimDuration::from_millis(400));
    let r = c.sem_report().unwrap();
    assert_eq!(r.violations, 0);
    assert_eq!(r.acquisitions, 48, "4 contenders × 12 rounds all completed");
    assert_eq!(r.unfinished, 0);
}

/// Determinism across the whole stack: identical seeds, identical
/// histories.
#[test]
fn whole_stack_determinism() {
    let run = |seed: u64| {
        let mut c = booted(6, seed);
        c.cache_write(0, 0, 0, b"det-check").unwrap();
        c.schedule_failure(c.now() + SimDuration::from_millis(3), Component::Node(NodeId(2)));
        c.send_message(1, 5, 0, b"det-msg");
        c.run_for(SimDuration::from_millis(30));
        let rings: Vec<Vec<u8>> = c
            .roster_history()
            .iter()
            .map(|e| e.outcome.ring.order.iter().map(|n| n.0).collect())
            .collect();
        (c.epoch(), rings, c.now().as_nanos())
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42).2, 0);
}

/// The lower layers are directly reachable through the facade.
#[test]
fn facade_reexports_work() {
    // phy
    let mut enc = ampnet::phy::Encoder::new();
    let g = enc.encode(ampnet::phy::Symbol::Data(0x42)).unwrap();
    assert!(g < 1024);
    // packet
    let p = ampnet::packet::build::data(0, 1, 0, [0; 8]);
    assert_eq!(p.wire_bytes(), 20);
    // topo
    let t = ampnet::topo::Plant::crossbar(4, 4, 100.0);
    assert_eq!(t.largest_ring().len(), 4);
    // sim
    let d = ampnet::sim::SimDuration::from_micros(3);
    assert_eq!(d.as_nanos(), 3_000);
    // cache (host side)
    let b = ampnet::cache::host::SeqLockBuffer::new(4);
    b.write(&[1, 2, 3, 4]);
    let mut out = [0u64; 4];
    b.read(&mut out);
    assert_eq!(out, [1, 2, 3, 4]);
    // dk
    let v = ampnet::dk::Version::new(1, 2, 3);
    assert_eq!(v.to_string(), "1.2.3");
}

/// Messages queued while the ring is down are delivered after healing.
#[test]
fn traffic_queued_through_outage_is_delivered() {
    let mut c = booted(6, 77);
    // Fail a node; immediately (while the ring is still down) send.
    c.schedule_failure(c.now(), Component::Node(NodeId(3)));
    c.run_for(SimDuration::from_micros(50));
    assert!(!c.ring_up(), "rostering in progress");
    c.send_message(0, 5, 0, b"queued during outage");
    c.run_for(SimDuration::from_millis(20));
    assert!(c.ring_up());
    assert_eq!(
        c.pop_message(5).unwrap().payload,
        b"queued during outage",
        "MAC queues drain once the ring restores"
    );
}
