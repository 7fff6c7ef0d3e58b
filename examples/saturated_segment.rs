//! Slide 7/8 demo: mixed file+message streams and the all-to-all
//! broadcast no-drop guarantee on one register-insertion segment, a
//! booted cluster fed open-loop cell streams.
//!
//! ```text
//! cargo run --release --example saturated_segment
//! ```

use ampnet::core::{CellTraffic, Cluster, ClusterConfig, SimDuration, Telemetry};
use ampnet::packet::build;
use ampnet::telemetry::SnapValue;

/// A booted `n`-node cluster, 100 m of fiber per ring hop, recording
/// into a fresh registry from the end of boot on.
fn booted(n: usize, seed: u64) -> Cluster {
    let mut c = Cluster::new(ClusterConfig::small(n).with_fiber(50.0).with_seed(seed));
    c.run_for(SimDuration::from_millis(5));
    c.enable_telemetry_with(&Telemetry::new(1));
    c
}

fn main() {
    // --- Slide 7: every node inserts a file stream (cache updates) and
    // a message stream (Data cells) concurrently.
    let mut c = booted(4, 7);
    let mut traffic = CellTraffic::new(7);
    for node in 0..4 {
        traffic
            .poisson_at_load(&c, CellTraffic::cache_update(node, 0), 1.0)
            .expect("a well-formed cell from a node of the cluster");
        traffic
            .poisson_at_load(&c, build::data_broadcast(node, 1, [0; 8]), 1.0)
            .expect("a well-formed cell from a node of the cluster");
    }
    let before: Vec<Vec<u64>> = (0..4)
        .filter_map(|n| c.mac(n))
        .map(|mac| mac.streams_ref().sent_bytes())
        .collect();
    let window = SimDuration::from_millis(10);
    traffic.run_discarding(&mut c, window);
    println!("slide 7 — multiple streams per node on one segment:");
    for node in 0..4u8 {
        let sent = c
            .mac(node)
            .expect("a node of the cluster")
            .streams_ref()
            .sent_bytes();
        let bytes = |s: usize| sent[s] - before[node as usize][s];
        let mbps = |s: usize| bytes(s) as f64 / window.as_secs_f64() / 1e6;
        println!(
            "  node {node}: file stream {:.1} MB/s, message stream {:.1} MB/s",
            mbps(0),
            mbps(1)
        );
    }
    assert_eq!(c.total_drops(), 0);

    // --- Slide 8: all-to-all broadcast at 2x the segment capacity.
    println!("\nslide 8 — simultaneous all-to-all broadcast, 2x oversubscribed:");
    let mut c = booted(8, 8);
    let mut traffic = CellTraffic::new(8);
    for node in 0..8 {
        traffic
            .poisson_at_load(&c, CellTraffic::cache_update(node, 0), 2.0)
            .expect("a well-formed cell from a node of the cluster");
    }
    let window = SimDuration::from_millis(20);
    let delivered = |c: &Cluster| -> u64 {
        (0..8)
            .filter_map(|n| c.mac(n))
            .map(|mac| mac.stats().delivered_payload_bytes)
            .sum()
    };
    let before = delivered(&c);
    traffic.run_discarding(&mut c, window);
    let occupancy = (0..8)
        .filter_map(|n| c.mac(n))
        .map(|mac| mac.stats().transit_highwater)
        .max()
        .unwrap_or(0);
    println!(
        "  aggregate goodput {:.1} MB/s",
        (delivered(&c) - before) as f64 / window.as_secs_f64() / 1e6
    );
    println!(
        "  drops: {} | peak insertion-buffer occupancy: {occupancy} bytes (bound: 168)",
        c.total_drops()
    );
    if let Some(SnapValue::Hist { p50, p99, .. }) = c
        .metrics_snapshot()
        .get("ring_tour_ns", None)
        .map(|e| e.value)
    {
        println!(
            "  broadcast tour latency p50 {:.1} us, p99 {:.1} us",
            p50 as f64 / 1e3,
            p99 as f64 / 1e3
        );
    }
    assert_eq!(c.total_drops(), 0, "the guarantee of slide 8");
    assert!(occupancy <= 168, "the structural bound of slide 8");
    println!("  guaranteed not to drop packets — CONFIRMED");
}
