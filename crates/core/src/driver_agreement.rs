//! The two ring drivers against each other. `Cluster` and the
//! standalone `ampnet_ring::Segment` both drive `NodeStack` and take
//! every arrival through `NodeStack::classify_arrival`; on the same
//! ring, the same arrivals must show the same MAC decisions at the same
//! instants. The arrivals are the segment's one workload, slide 8's
//! all-to-all broadcast, and [`CellTraffic`] reproduces it on the
//! cluster: the segment draws each node's Poisson gaps from a
//! `SimRng` seeded like the driver's, in the same order, and numbers
//! its cells as the driver does. The flight recorder is the witness:
//! both drivers record MAC inserts, deliveries and strips there, and
//! telemetry stays off the simulated path.
//!
//! One ordering differs by design: a cell due at the very nanosecond a
//! frame lands at its node is queued after that frame on the cluster
//! (the driver steps `run_until` to the instant first) and, on the
//! segment, in push order. The window below holds no such coincidence
//! that changes a decision; one would show as a mismatch here.

use crate::{CellTraffic, Cluster, ClusterConfig};
use ampnet_packet::build;
use ampnet_ring::{AimdParams, PacingMode, RingNodeParams, RingNodeStats, Segment, SegmentParams};
use ampnet_sim::SimDuration;
use ampnet_telemetry::Telemetry;
use ampnet_topo::NodeId;

const N: usize = 6;
/// Offered load, as a fraction of the ring's one cell per
/// serialization time.
const LOAD: f64 = 0.5;
const WINDOW: SimDuration = SimDuration::from_micros(300);

/// The MAC insert, deliver and strip lines of a flight dump, per node,
/// each stamped relative to `t0`.
fn mac_events(dump: &str, t0: u64) -> Vec<Vec<(u64, String)>> {
    let mut per_node = vec![vec![]; N];
    for line in dump.lines().skip(1) {
        let (at, rest) = line
            .strip_prefix('[')
            .unwrap()
            .split_once(" ns] node ")
            .unwrap();
        if ["insert ->", "deliver <-", "strip own"]
            .iter()
            .any(|k| rest.contains(k))
        {
            let (node, what) = rest.trim_start().split_once(' ').unwrap();
            let at: u64 = at.trim().parse().unwrap();
            per_node[node.parse::<usize>().unwrap()].push((at - t0, what.trim().to_owned()));
        }
    }
    per_node
}

/// The counters a burst moves, as a difference of two readings.
fn delta(after: &RingNodeStats, before: &RingNodeStats) -> [u64; 6] {
    [
        after.inserted - before.inserted,
        after.forwarded - before.forwarded,
        after.delivered - before.delivered,
        after.stripped - before.stripped,
        after.would_drop - before.would_drop,
        after.delivered_payload_bytes - before.delivered_payload_bytes,
    ]
}

/// The cluster's MAC with a hair-trigger governor: one Data cell in
/// the insertion buffer since the last insertion counts as congestion.
/// The default threshold (more than one DMA cell) rarely trips on six
/// nodes, and a governor that never makes a port wait tests no retry.
fn mac() -> RingNodeParams {
    let aimd = AimdParams {
        congestion_bytes: 20,
        ..Default::default()
    };
    RingNodeParams {
        pacing: PacingMode::Adaptive(aimd),
        ..ClusterConfig::small(N).mac
    }
}

/// Run `c` until nothing is scheduled.
fn run_quiet(c: &mut Cluster) {
    while let Some(t) = c.next_event_time() {
        c.run_until(t);
    }
}

#[test]
fn ring_drivers_agree_hop_for_hop() {
    let cfg = ClusterConfig {
        mac: mac(),
        ..ClusterConfig::small(N)
    };
    let mut c = Cluster::new(cfg.clone());
    run_quiet(&mut c);
    assert!(c.ring_up(), "rostered");
    assert_eq!(
        c.certifications().count(),
        1,
        "the certification Echo toured"
    );
    let ring = c.ring();
    assert_eq!(
        ring.order,
        (0..N as u8).map(NodeId).collect::<Vec<_>>(),
        "ring in id order"
    );
    let fibers: Vec<f64> = (0..N)
        .map(|k| {
            c.topology()
                .hop_fiber_m(ring.order[k], ring.order[(k + 1) % N], &ring.hops[k])
        })
        .collect();
    assert!(
        fibers.iter().all(|&f| f == fibers[0]),
        "one fiber run per hop: {fibers:?}"
    );

    // The cluster's MACs carry the boot: nodes 1–5 forwarded the Echo
    // and have inserted nothing since, so under the hair-trigger
    // governor their next insertion would back off once more than on
    // the segment's fresh MACs (EXPERIMENTS.md §B15). One unicast from
    // each node to its successor, all at one instant, clears that: every
    // node inserts, nothing is forwarded, and each governor comes out
    // with the fresh one's gap after one uncongested insertion.
    for node in 0..N as u8 {
        c.send_cell(build::data(node, (node + 1) % N as u8, 0, [0; 8]))
            .unwrap();
    }
    run_quiet(&mut c);

    let mut seg = Segment::new(
        SegmentParams {
            n_nodes: N,
            link: cfg.timing.link(fibers[0]),
            node: cfg.mac,
            node_latency: cfg.timing.node_latency,
        },
        cfg.seed,
    );
    let (c_tel, s_tel) = (Telemetry::new(1 << 16), Telemetry::new(1 << 16));
    c.enable_telemetry_with(&c_tel);
    seg.enable_telemetry(&s_tel);

    let t0 = c.now();
    let before: Vec<RingNodeStats> = c.nodes.iter().map(|n| *n.stack.mac.stats()).collect();
    let backoffs_before: Vec<u64> = c.nodes.iter().map(|n| n.stack.mac.backoffs()).collect();
    let events_before = c.events_processed();
    seg.all_to_all_broadcast(LOAD);
    // The segment's per-node gap for this load, its seed and its cells.
    let mut traffic = CellTraffic::new(cfg.seed);
    for node in 0..N as u8 {
        traffic
            .poisson_at_load(&c, build::data_broadcast(node, 0, [0; 8]), LOAD)
            .unwrap();
    }
    traffic.run_until(&mut c, t0 + WINDOW);
    let report = seg.run_for(WINDOW);

    let c_events = mac_events(&c_tel.flight_dump(), t0.0);
    let s_events = mac_events(&s_tel.flight_dump(), 0);
    assert_eq!(
        c_tel.flight_recorded(),
        c_tel.flight_len() as u64,
        "nothing wrapped"
    );
    assert_eq!(
        s_tel.flight_recorded(),
        s_tel.flight_len() as u64,
        "nothing wrapped"
    );
    let (mut inserted, mut hops, mut backoffs) = (0, 0, 0);
    for node in 0..N {
        let c_delta = delta(c.nodes[node].stack.mac.stats(), &before[node]);
        assert_eq!(
            c_events[node].len() as u64,
            c_delta[0] + c_delta[2] + c_delta[3],
            "node {node}: one flight event per insert, delivery and strip"
        );
        assert_eq!(c_events[node], s_events[node], "node {node}: MAC events");
        assert_eq!(
            c_delta,
            delta(seg.node(node).stats(), &RingNodeStats::default()),
            "node {node}: MAC counters"
        );
        assert_eq!(
            traffic.sent(node as u8),
            report.generated[node],
            "node {node}: the same cells"
        );
        assert_eq!(
            c.nodes[node].stack.mac.backoffs() - backoffs_before[node],
            seg.node(node).backoffs(),
            "node {node}: governor back-offs"
        );
        inserted += c_delta[0];
        hops += c_delta[0] + c_delta[1];
        backoffs += seg.node(node).backoffs();
    }
    assert_eq!(report.drops, 0);
    assert!(inserted > 100, "{inserted} frames inserted");
    assert!(backoffs > 0, "the governors deferred insertions");

    // The segment's kernel pops a generator event per cell, an arrival
    // and an end of transmission per hop, and governor retries; the
    // cluster's pops an arrival per hop and an end of transmission only
    // when a frame waits for the port, and its driver queues cells
    // between events.
    let c_kernel = c.events_processed() - events_before;
    let s_kernel = seg.events_processed();
    println!(
        "{inserted} frames, {hops} hops, {backoffs} back-offs: \
         Cluster {c_kernel} kernel events ({:.3} per frame, {:.3} per hop), \
         Segment {s_kernel} ({:.3} per frame, {:.3} per hop)",
        c_kernel as f64 / inserted as f64,
        c_kernel as f64 / hops as f64,
        s_kernel as f64 / inserted as f64,
        s_kernel as f64 / hops as f64,
    );
}
