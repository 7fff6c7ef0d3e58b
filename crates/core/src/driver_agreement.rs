//! The two ring drivers against each other. `Cluster` and the
//! standalone `ampnet_ring::Segment` both drive `NodeStack` and take
//! every arrival through `NodeStack::classify_arrival`; on the same
//! ring, the same burst must show the same MAC decisions at the same
//! instants. The flight recorder is the witness: both drivers record
//! MAC inserts, deliveries and strips there, and telemetry stays off
//! the simulated path.

use crate::{Cluster, ClusterConfig};
use ampnet_packet::{build, DmaCtrl, MicroPacket, BROADCAST};
use ampnet_ring::{
    AimdParams, ArrivalProcess, DstPattern, PacingMode, PacketKind, RingNodeParams, RingNodeStats,
    Segment, SegmentParams, StreamWorkload,
};
use ampnet_sim::SimDuration;
use ampnet_telemetry::Telemetry;
use ampnet_topo::NodeId;

const N: usize = 6;

/// The burst, in injection order: Data and DMA cells, unicast and
/// broadcast, on several streams — enough to back the insertion
/// buffers up and, under [`mac`]'s governor, to defer insertions.
fn burst() -> Vec<(usize, StreamWorkload)> {
    let w = |stream, kind, dst, n| StreamWorkload {
        stream,
        kind,
        dst,
        arrivals: ArrivalProcess::Burst(n),
    };
    vec![
        (0, w(0, PacketKind::File(64), DstPattern::Broadcast, 12)),
        (0, w(1, PacketKind::Message, DstPattern::Fixed(3), 20)),
        (1, w(2, PacketKind::Message, DstPattern::Broadcast, 16)),
        (2, w(0, PacketKind::File(40), DstPattern::Fixed(5), 12)),
        (3, w(3, PacketKind::Message, DstPattern::Fixed(0), 16)),
        (3, w(1, PacketKind::File(64), DstPattern::Broadcast, 8)),
        (4, w(2, PacketKind::File(17), DstPattern::Fixed(1), 10)),
        (5, w(0, PacketKind::Message, DstPattern::Broadcast, 24)),
    ]
}

/// The packets `Segment` generates for `w` at `node`, numbered from
/// `seq` as its generator numbers them.
fn packets(node: usize, w: &StreamWorkload, seq: &mut u64) -> Vec<MicroPacket> {
    let (src, count) = match w.arrivals {
        ArrivalProcess::Burst(count) => (node as u8, count),
        _ => unreachable!("the burst is made of Burst workloads"),
    };
    let dst = match w.dst {
        DstPattern::Broadcast => BROADCAST,
        DstPattern::Fixed(d) => d,
        DstPattern::RoundRobin => unreachable!("the burst names its destinations"),
    };
    (0..count)
        .map(|_| {
            *seq += 1;
            match w.kind {
                PacketKind::Message => build::data(src, dst, w.stream, seq.to_be_bytes()),
                PacketKind::File(len) => {
                    let ctrl = DmaCtrl {
                        channel: w.stream,
                        region: 0,
                        offset: 0,
                        len: 0,
                    };
                    build::dma(src, dst, w.stream, ctrl, &[0xA5; 64][..len as usize]).unwrap()
                }
            }
        })
        .collect()
}

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
    let mut seq = 0;
    for (node, w) in burst() {
        c.send_own(node as u8, packets(node, &w, &mut seq));
        seg.add_workload(node, w);
    }
    run_quiet(&mut c);
    let report = seg.run_for(c.now() - t0 + SimDuration::from_micros(1));

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
    let mut hops = 0;
    let mut inserted = 0;
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
        // The one difference is state the cluster brings from boot, not
        // hop handling: a node that has forwarded the certification Echo
        // and inserted nothing since enters the burst with a 20-byte
        // high-water mark, so its first insertion backs off once more
        // than on the segment's fresh MAC (EXPERIMENTS.md §B15).
        let echo_seen = before[node].inserted == 0 && before[node].transit_highwater >= 20;
        assert_eq!(
            c.nodes[node].stack.mac.backoffs() - backoffs_before[node],
            seg.node(node).backoffs() + echo_seen as u64,
            "node {node}: governor back-offs"
        );
        inserted += c_delta[0];
        hops += c_delta[0] + c_delta[1];
    }
    let generated: u64 = report.generated.iter().sum();
    assert_eq!(inserted, generated, "every frame of the burst was inserted");
    assert_eq!(report.drops, 0);

    // The segment's kernel pops one generator event per workload, and
    // an arrival and an end of transmission per hop; the rest are
    // governor retries.
    let c_kernel = c.events_processed() - events_before;
    let s_kernel = seg.events_processed();
    let retries = s_kernel - burst().len() as u64 - 2 * hops;
    assert!(
        retries > 0,
        "the governors deferred an insertion to a retry"
    );
    println!(
        "{inserted} frames, {hops} hops, {} back-offs, {retries} retries: \
         Cluster {c_kernel} kernel events ({:.3} per frame, {:.3} per hop), \
         Segment {s_kernel} ({:.3} per frame, {:.3} per hop)",
        report.backoffs,
        c_kernel as f64 / inserted as f64,
        c_kernel as f64 / hops as f64,
        s_kernel as f64 / inserted as f64,
        s_kernel as f64 / hops as f64,
    );
}
