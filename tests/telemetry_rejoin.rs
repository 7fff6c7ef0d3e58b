//! A rejoining node re-registers its cache counters under its own
//! label (`membership.rs`, on every rejoin), and registration is
//! idempotent: the rejoined node keeps counting in the instrument it
//! had before its crash, and no `(metric, node)` is listed twice.

use ampnet::chaos::{apply_fault_schedule, FaultEvent, FaultOp};
use ampnet::core::{Cluster, ClusterConfig, SimDuration};
use ampnet::telemetry::{MetricsSnapshot, SnapValue};
use std::collections::BTreeSet;

const NODE: u8 = 3;

/// Node 3's `cache_updates_applied`.
fn updates_applied(snap: &MetricsSnapshot) -> u64 {
    match snap.get("cache_updates_applied", Some(NODE)).map(|e| &e.value) {
        Some(SnapValue::Counter(c)) => *c,
        other => panic!("cache_updates_applied at node {NODE} is {other:?}"),
    }
}

/// One cache write from node 0 per millisecond, for `ms` milliseconds.
fn write_for(cluster: &mut Cluster, ms: u8) {
    for gen in 0..ms {
        cluster.cache_write(0, 0, 4096, &[gen; 16]).unwrap();
        cluster.run_for(SimDuration::from_millis(1));
    }
}

#[test]
fn a_rejoined_node_keeps_counting_in_its_own_instruments() {
    let mut cluster = Cluster::new(ClusterConfig::small(6).with_seed(0x4E10));
    cluster.enable_telemetry(64);
    cluster.run_for(SimDuration::from_millis(5));
    assert!(cluster.ring_up(), "boot completes within 5 ms");
    write_for(&mut cluster, 5);
    let mut applied = updates_applied(&cluster.metrics_snapshot());
    assert!(applied > 0, "node {NODE} applied no update before its crash");

    for cycle in 0..2 {
        apply_fault_schedule(
            &mut cluster,
            &[
                FaultEvent { at: SimDuration::from_millis(1), op: FaultOp::CrashNode(NODE) },
                FaultEvent { at: SimDuration::from_millis(10), op: FaultOp::Rejoin(NODE) },
            ],
        );
        cluster.run_for(SimDuration::from_millis(5));
        assert!(!cluster.node_online(NODE), "cycle {cycle}: node {NODE} is down");
        let deadline = cluster.now() + SimDuration::from_millis(500);
        while !cluster.node_online(NODE) {
            assert!(cluster.now() < deadline, "cycle {cycle}: node {NODE} never rejoined");
            cluster.run_for(SimDuration::from_millis(1));
        }
        write_for(&mut cluster, 5);

        let snap = cluster.metrics_snapshot();
        let keys: BTreeSet<_> = snap.entries.iter().map(|e| (e.def.name, e.node)).collect();
        assert_eq!(keys.len(), snap.entries.len(), "cycle {cycle}: an instrument is listed twice");
        let now_applied = updates_applied(&snap);
        assert!(
            now_applied > applied,
            "cycle {cycle}: node {NODE} applied {now_applied} updates after its rejoin, {applied} before"
        );
        applied = now_applied;
    }
}
