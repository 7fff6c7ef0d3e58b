//! Multi-segment routing tests (slide 15: segments joined by routers,
//! with "2R's" for redundancy).

use ampnet_core::{
    Cluster, ClusterConfig, Component, DataCell, GlobalAddr, MultiSegment, NodeId, ParallelMode,
    SimDuration, ROUTE_STREAM,
};
use ampnet_packet::build;

fn ga(segment: u8, node: u8) -> GlobalAddr {
    GlobalAddr { segment, node }
}

fn two_segments(seed: u64) -> MultiSegment {
    let mut net = MultiSegment::new(vec![
        ClusterConfig::small(4).with_seed(seed),
        ClusterConfig::small(4).with_seed(seed + 1),
    ]);
    // Router pair: node 3 of segment 0 ↔ node 0 of segment 1.
    net.add_bridge(ga(0, 3), ga(1, 0), SimDuration::from_micros(5));
    net.run_for(SimDuration::from_millis(5)); // boot both rings
    assert!(net.segment(0).ring_up() && net.segment(1).ring_up());
    net
}

#[test]
fn local_global_delivery() {
    let mut net = two_segments(30);
    net.send_global(ga(0, 0), ga(0, 2), b"same segment");
    net.run_for(SimDuration::from_millis(1));
    let d = net.pop_global(ga(0, 2)).expect("delivered");
    assert_eq!(d.payload, b"same segment");
    assert_eq!(d.src, ga(0, 0));
}

#[test]
fn cross_segment_delivery() {
    let mut net = two_segments(31);
    net.send_global(ga(0, 1), ga(1, 2), b"across the router");
    net.run_for(SimDuration::from_millis(2));
    let d = net.pop_global(ga(1, 2)).expect("crossed the bridge");
    assert_eq!(d.payload, b"across the router");
    assert_eq!(d.src, ga(0, 1));
    assert_eq!(net.unroutable, 0);
}

#[test]
fn router_node_sending_crosses_directly() {
    let mut net = two_segments(32);
    net.send_global(ga(0, 3), ga(1, 1), b"from the router itself");
    net.run_for(SimDuration::from_millis(2));
    assert_eq!(
        net.pop_global(ga(1, 1)).unwrap().payload,
        b"from the router itself"
    );
}

#[test]
fn three_segment_line_multi_hop() {
    let mut net = MultiSegment::new(vec![
        ClusterConfig::small(3).with_seed(33),
        ClusterConfig::small(3).with_seed(34),
        ClusterConfig::small(3).with_seed(35),
    ]);
    net.add_bridge(ga(0, 2), ga(1, 0), SimDuration::from_micros(5));
    net.add_bridge(ga(1, 2), ga(2, 0), SimDuration::from_micros(5));
    net.run_for(SimDuration::from_millis(5));
    net.send_global(ga(0, 0), ga(2, 1), b"two bridges away");
    net.run_for(SimDuration::from_millis(3));
    let d = net.pop_global(ga(2, 1)).expect("multi-hop routed");
    assert_eq!(d.payload, b"two bridges away");
    assert_eq!(d.src, ga(0, 0));
    assert_eq!(net.unroutable, 0);
}

#[test]
fn redundant_router_takes_over() {
    // Slide 15's "2R's": two bridges between the segments.
    let mut net = MultiSegment::new(vec![
        ClusterConfig::small(4).with_seed(36),
        ClusterConfig::small(4).with_seed(37),
    ]);
    net.add_bridge(ga(0, 3), ga(1, 0), SimDuration::from_micros(5));
    net.add_bridge(ga(0, 2), ga(1, 1), SimDuration::from_micros(5));
    net.run_for(SimDuration::from_millis(5));

    // Primary router (segment 0, node 3) dies; its segment re-rosters
    // and the second bridge carries the traffic.
    let t = net.segment(0).now();
    net.segment_mut(0)
        .schedule_failure(t, Component::Node(NodeId(3)));
    net.run_for(SimDuration::from_millis(10));
    assert_eq!(net.segment(0).ring().len(), 3);

    net.send_global(ga(0, 0), ga(1, 2), b"via the backup router");
    net.run_for(SimDuration::from_millis(3));
    let d = net.pop_global(ga(1, 2)).expect("backup bridge used");
    assert_eq!(d.payload, b"via the backup router");
    assert_eq!(net.unroutable, 0);
}

#[test]
fn no_route_is_counted_not_lost_silently() {
    let mut net = MultiSegment::new(vec![
        ClusterConfig::small(3).with_seed(38),
        ClusterConfig::small(3).with_seed(39),
    ]);
    // No bridge at all.
    net.run_for(SimDuration::from_millis(5));
    net.send_global(ga(0, 0), ga(1, 1), b"nowhere to go");
    net.run_for(SimDuration::from_millis(2));
    assert_eq!(net.unroutable, 1);
    assert!(net.pop_global(ga(1, 1)).is_none());
}

#[test]
fn segments_heal_independently() {
    let mut net = two_segments(40);
    // Break segment 1's ring while segment 0 keeps serving.
    let t = net.segment(1).now();
    net.segment_mut(1)
        .schedule_failure(t, Component::Node(NodeId(3)));
    net.send_global(ga(0, 0), ga(0, 1), b"unaffected");
    net.run_for(SimDuration::from_millis(10));
    assert_eq!(net.pop_global(ga(0, 1)).unwrap().payload, b"unaffected");
    assert_eq!(net.segment(1).ring().len(), 3, "segment 1 healed alone");
    // Cross-segment traffic works after the heal.
    net.send_global(ga(0, 2), ga(1, 1), b"post-heal crossing");
    net.run_for(SimDuration::from_millis(3));
    assert_eq!(
        net.pop_global(ga(1, 1)).unwrap().payload,
        b"post-heal crossing"
    );
}

#[test]
fn bidirectional_crossing() {
    let mut net = two_segments(41);
    net.send_global(ga(0, 1), ga(1, 3), b"eastbound");
    net.send_global(ga(1, 3), ga(0, 1), b"westbound");
    net.run_for(SimDuration::from_millis(3));
    assert_eq!(net.pop_global(ga(1, 3)).unwrap().payload, b"eastbound");
    assert_eq!(net.pop_global(ga(0, 1)).unwrap().payload, b"westbound");
}

#[test]
fn clusters_stay_deterministic_under_lockstep() {
    let run = |seed| {
        let mut net = two_segments(seed);
        net.send_global(ga(0, 0), ga(1, 2), b"det");
        net.run_for(SimDuration::from_millis(3));
        (
            net.pop_global(ga(1, 2)).map(|d| d.payload),
            net.segment(0).now().as_nanos(),
            net.segment(1).now().as_nanos(),
        )
    };
    assert_eq!(run(50), run(50));
}

#[test]
fn crossing_near_deadline_is_not_deferred_past_it() {
    // Regression for the slice-boundary loss bug: with a coarse slice
    // (40 µs) and `deadline - now < slice`, a datagram that matures
    // mid-slice (bridge latency 5 µs) used to be injected only at the
    // clamped final boundary == deadline, where the far cluster never
    // runs again — so it silently missed the deadline. Boundaries are
    // now also placed at crossing maturity instants.
    let mut net = two_segments(60);
    let coarse = SimDuration::from_micros(40);
    // Router itself sends, so the crossing is queued immediately with
    // deliver_at = now + 5 µs, inside the one-and-only slice: with
    // deadline - now (35 µs) < slice (40 µs), the old engine's single
    // clamped slice injected the crossing at the deadline itself and
    // the far ring never carried it.
    net.send_global(ga(0, 3), ga(1, 2), b"just in time");
    let deadline = net.segment(0).now() + SimDuration::from_micros(35);
    net.run_until(deadline, coarse);
    let d = net
        .pop_global(ga(1, 2))
        .expect("crossing must be injected at maturity, not deferred past the deadline");
    assert_eq!(d.payload, b"just in time");
    assert_eq!(net.unroutable, 0);
}

#[test]
fn threaded_mode_delivers_like_serial() {
    let run = |mode: ParallelMode| {
        let mut net = two_segments(61);
        net.set_parallel_mode(mode);
        net.send_global(ga(0, 1), ga(1, 2), b"mode-independent");
        net.send_global(ga(1, 3), ga(0, 0), b"westbound");
        net.run_for(SimDuration::from_millis(3));
        (
            net.pop_global(ga(1, 2)).map(|d| d.payload),
            net.pop_global(ga(0, 0)).map(|d| d.payload),
            net.unroutable,
            net.segment(0).now(),
            net.segment(1).now(),
        )
    };
    let serial = run(ParallelMode::Serial);
    assert_eq!(serial.0.as_deref(), Some(b"mode-independent".as_slice()));
    assert_eq!(serial, run(ParallelMode::Threads(2)));
    assert_eq!(serial, run(ParallelMode::Threads(8)));
}

#[test]
fn threaded_mode_survives_router_failover() {
    let run = |mode: ParallelMode| {
        let mut net = MultiSegment::new(vec![
            ClusterConfig::small(4).with_seed(62),
            ClusterConfig::small(4).with_seed(63),
        ]);
        net.add_bridge(ga(0, 3), ga(1, 0), SimDuration::from_micros(5));
        net.add_bridge(ga(0, 2), ga(1, 1), SimDuration::from_micros(5));
        net.set_parallel_mode(mode);
        net.run_for(SimDuration::from_millis(5));
        let t = net.segment(0).now();
        net.segment_mut(0)
            .schedule_failure(t, Component::Node(NodeId(3)));
        net.run_for(SimDuration::from_millis(10));
        net.send_global(ga(0, 0), ga(1, 2), b"backup bridge");
        net.run_for(SimDuration::from_millis(3));
        (net.pop_global(ga(1, 2)).map(|d| d.payload), net.unroutable)
    };
    let serial = run(ParallelMode::Serial);
    assert_eq!(serial.0.as_deref(), Some(b"backup bridge".as_slice()));
    assert_eq!(serial, run(ParallelMode::Threads(4)));
}

#[test]
fn more_threads_than_segments_is_fine() {
    let mut net = two_segments(64);
    net.set_parallel_mode(ParallelMode::Threads(16)); // clamped to 2 workers
    net.send_global(ga(0, 0), ga(1, 1), b"overprovisioned");
    net.run_for(SimDuration::from_millis(2));
    assert_eq!(
        net.pop_global(ga(1, 1)).unwrap().payload,
        b"overprovisioned"
    );
}

#[test]
fn hostile_and_degenerate_addresses_are_counted_or_delivered() {
    // `(src, dst, lands)`: no address may panic the network, and every
    // datagram is either popped at `dst` or counted unroutable. The
    // `pop_global` at each unknown `dst` is part of the check.
    let cases = [
        (ga(0, 1), ga(7, 0), false), // no such segment
        (ga(0, 1), ga(1, 9), false), // no such node, across the bridge
        (ga(0, 1), ga(0, 9), false), // no such node, own segment
        (ga(7, 0), ga(0, 1), false), // sender on no such segment
        (ga(0, 9), ga(0, 1), false), // no such sender node
        (ga(0, 1), ga(0, 1), true),  // addressed to its own sender
        (ga(0, 3), ga(0, 3), true),  // ... who is a router
        (ga(0, 1), ga(1, 0), true),  // the ingress router is the destination
    ];
    for (i, (src, dst, lands)) in cases.into_iter().enumerate() {
        let mut net = two_segments(70 + i as u64);
        net.send_global(src, dst, b"edge case");
        net.run_for(SimDuration::from_millis(3));
        let got = net.pop_global(dst);
        assert_eq!(got.is_some(), lands, "{src:?} -> {dst:?}");
        if let Some(d) = got {
            assert_eq!(
                (d.src, d.payload.as_slice()),
                (src, b"edge case".as_slice())
            );
        }
        assert_eq!(net.unroutable, u64::from(!lands), "{src:?} -> {dst:?}");
    }
}

/// A raw Data cell tagged with the route stream is not routed traffic,
/// even when its payload starts like a route header (destination (0, 0),
/// source (0, 1)): no global datagram appears anywhere, and the cell
/// reaches its receiver unchanged.
#[test]
fn a_data_cell_on_the_route_stream_is_not_a_global_datagram() {
    let mut net = two_segments(43);
    let payload = [0, 0, 0, 1, 0xAA, 0xBB, 0xCC, 0xDD];
    let sent = build::data(2, 3, ROUTE_STREAM, payload);
    net.segment_mut(1).send_cell(sent).unwrap();
    net.run_for(SimDuration::from_millis(1));
    for segment in 0..2 {
        for node in 0..4 {
            let got = net.pop_global(ga(segment, node));
            assert!(
                got.is_none(),
                "({segment},{node}) got {got:?}, which nobody sent"
            );
        }
    }
    let cell = DataCell {
        src: 2,
        stream: ROUTE_STREAM,
        payload,
    };
    assert_eq!(net.segment_mut(1).pop_cell(3), Some(cell));
}

/// Two unbooted 4-node segments, for the registration checks.
fn unbridged() -> MultiSegment {
    MultiSegment::new(vec![ClusterConfig::small(4), ClusterConfig::small(4)])
}

#[test]
#[should_panic(
    expected = "bridge endpoint GlobalAddr { segment: 1, node: 9 } is not in the network"
)]
fn bridge_to_an_unknown_node_is_rejected_at_registration() {
    unbridged().add_bridge(ga(0, 1), ga(1, 9), SimDuration::from_micros(5));
}

#[test]
#[should_panic(
    expected = "bridge endpoint GlobalAddr { segment: 7, node: 0 } is not in the network"
)]
fn bridge_to_an_unknown_segment_is_rejected_at_registration() {
    unbridged().add_bridge(ga(0, 1), ga(7, 0), SimDuration::from_micros(5));
}

// Re-exported type sanity.
#[test]
fn cluster_accessors() {
    let net = two_segments(42);
    let c: &Cluster = net.segment(0);
    assert_eq!(c.n_nodes(), 4);
}
