//! The ring meters on `Cluster`: an own broadcast's tour
//! (`ring_tour_ns`, insert to strip) and an own frame's access wait
//! (`ring_access_ns`, enqueue to insert), checked against the closed
//! form on an idle ring.

use ampnet_core::{Cluster, ClusterConfig, Component, NodeId, SimDuration, Telemetry};
use ampnet_packet::build;
use ampnet_telemetry::SnapValue;

const NODES: usize = 6;

/// A booted, idle cluster recording into a fresh registry from now on.
fn idle_instrumented() -> (Cluster, Telemetry) {
    let mut c = Cluster::new(ClusterConfig::small(NODES));
    c.run_for(SimDuration::from_millis(5));
    assert!(c.ring_up());
    let tel = Telemetry::new(64);
    c.enable_telemetry_with(&tel);
    (c, tel)
}

/// `(count, sum, max)` of a histogram in the cluster's registry.
fn hist(c: &Cluster, name: &str) -> (u64, u128, u64) {
    match c.metrics_snapshot().get(name, None).map(|e| e.value) {
        Some(SnapValue::Hist {
            count, sum, max, ..
        }) => (count, sum, max),
        v => panic!("{name}: expected a histogram, got {v:?}"),
    }
}

#[test]
fn one_broadcast_records_the_quiet_tour() {
    let (mut c, _tel) = idle_instrumented();
    // Eight bytes: one DMA cell of 28 wire bytes, broadcast by node 2.
    c.cache_write(2, 0, 0, &[7; 8]);
    c.run_for(SimDuration::from_millis(1));
    // Each hop: the cell is clocked out, crosses its fiber run, and is
    // re-timed at the next node, which forwards it at once.
    let cfg = ClusterConfig::small(NODES);
    let ring = c.ring();
    let quiet: u64 = (0..NODES)
        .map(|k| {
            let (from, to) = (ring.order[k], ring.order[(k + 1) % NODES]);
            let link = cfg
                .timing
                .link(c.topology().hop_fiber_m(from, to, &ring.hops[k]));
            (link.serialize_time(28) + link.propagation() + cfg.timing.node_latency).as_nanos()
        })
        .sum();
    assert_eq!(hist(&c, "ring_tour_ns"), (1, quiet.into(), quiet));
}

#[test]
fn a_second_queued_cell_waits_one_serialization_time() {
    let (mut c, _tel) = idle_instrumented();
    // 128 bytes: two full DMA cells, queued back to back at node 4.
    c.cache_write(4, 0, 0, &[9; 128]);
    c.run_for(SimDuration::from_millis(1));
    let ser = ClusterConfig::small(NODES)
        .timing
        .link(0.0)
        .serialize_time(84)
        .as_nanos();
    // The first goes at once, the second when the port frees.
    assert_eq!(hist(&c, "ring_access_ns"), (2, ser.into(), ser));
}

#[test]
fn a_unicast_stripped_off_ring_retires_no_broadcast() {
    let mut c = Cluster::new(ClusterConfig::small(4));
    c.run_for(SimDuration::from_millis(5));
    c.schedule_failure(c.now(), Component::Node(NodeId(3)));
    c.run_for(SimDuration::from_millis(20));
    assert!(c.ring_up() && !c.ring().order.contains(&NodeId(3)));
    let tel = Telemetry::new(64);
    c.enable_telemetry_with(&tel);
    let stripped = c.mac(0).stats().stripped;
    // Node 3 is off the ring: the unicast tours back to node 0 and is
    // stripped there, ahead of the broadcast queued behind it.
    c.send_cell(0, build::data(0, 3, 0, [0; 8])).unwrap();
    c.send_cell(0, build::data_broadcast(0, 0, [0; 8])).unwrap();
    c.run_for(SimDuration::from_millis(1));
    assert_eq!(c.mac(0).stats().stripped - stripped, 2);
    assert_eq!(hist(&c, "ring_tour_ns").0, 1, "the broadcast's tour, once");
}
