//! The register-insertion MAC's end-to-end properties on `Cluster`,
//! under open-loop cell streams from its [`CellTraffic`] driver: no
//! drop and a bounded insertion buffer for any stream mix, with or
//! without the governor; every broadcast delivered exactly once to
//! every other node; one source's cells seen in order on each stream;
//! a unicast seen by its destination only.

use ampnet_core::{CellTraffic, Cluster, ClusterConfig, SimDuration};
use ampnet_packet::{build, DmaCtrl, MicroPacket, BROADCAST};
use ampnet_ring::{PacingMode, MAX_PACKET_WIRE};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A booted `n`-node cluster on 10 m fibers, its ring up and quiet.
fn booted(n: usize, greedy: bool, seed: u64) -> Cluster {
    let mut cfg = ClusterConfig::small(n).with_fiber(10.0).with_seed(seed);
    if greedy {
        cfg.mac.pacing = PacingMode::Greedy;
    }
    let mut c = Cluster::new(cfg);
    c.run_for(SimDuration::from_millis(5));
    assert!(c.ring_up());
    c
}

/// A Data cell, or a DMA cell of `len` payload bytes, on `stream`.
fn cell(src: u8, dst: u8, stream: u8, dma_len: Option<usize>) -> MicroPacket {
    match dma_len {
        None => build::data(src, dst, stream, [0; 8]),
        Some(len) => {
            let ctrl = DmaCtrl {
                channel: stream,
                region: 0,
                offset: 0,
                len: 0,
            };
            build::dma(src, dst, stream, ctrl, &[0xA5; 64][..len]).unwrap()
        }
    }
}

/// Every Data cell delivered so far, as (receiver, source, stream,
/// payload), in delivery order per receiver.
fn drain(c: &mut Cluster) -> Vec<(u8, u8, u8, u64)> {
    let mut out = vec![];
    for rcv in 0..c.n_nodes() as u8 {
        while let Some(d) = c.pop_cell(rcv) {
            out.push((rcv, d.src, d.stream, u64::from_be_bytes(d.payload)));
        }
    }
    out
}

/// One stream: its node, stream, DMA length (`None`: a Data cell),
/// destination (`None`: broadcast) and mean gap in ns.
type Stream = (usize, u8, Option<usize>, Option<u8>, u64);

fn arb_stream() -> impl Strategy<Value = Stream> {
    (
        0usize..7,
        0u8..3,
        prop_oneof![Just(None), (1usize..=64).prop_map(Some)],
        prop_oneof![Just(None), (0u8..7).prop_map(Some)],
        200u64..5_000,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No cell is ever dropped and the insertion buffer never exceeds
    /// its structural bound, for any stream mix, with or without the
    /// adaptive governor.
    #[test]
    fn never_drops(
        n in 2usize..7,
        greedy in any::<bool>(),
        streams in proptest::collection::vec(arb_stream(), 1..6),
        seed in any::<u64>(),
    ) {
        let mut c = booted(n, greedy, seed);
        let mut traffic = CellTraffic::new(seed);
        for (node, stream, dma_len, dst, gap) in streams {
            let (node, dst) = (node % n, dst.map_or(BROADCAST, |d| d % n as u8));
            let cell = cell(node as u8, dst, stream, dma_len);
            traffic.poisson(node as u8, cell, SimDuration::from_nanos(gap)).unwrap();
        }
        let end = c.now() + SimDuration::from_millis(1);
        traffic.run_until(&mut c, end);
        prop_assert_eq!(c.total_drops(), 0);
        for node in 0..n as u8 {
            prop_assert!(c.mac(node).stats().transit_highwater <= 2 * MAX_PACKET_WIRE);
        }
    }

    /// Broadcast conservation: every broadcast cell of a source is
    /// delivered exactly once to every other node (run long enough to
    /// drain).
    #[test]
    fn broadcast_exactly_once_each(
        n in 2usize..6,
        src in 0usize..6,
        window_us in 1u64..40,
        seed in any::<u64>(),
    ) {
        let src = (src % n) as u8;
        let mut c = booted(n, false, seed);
        let mut traffic = CellTraffic::new(seed);
        traffic.poisson(src, cell(src, BROADCAST, 0, None), SimDuration::from_micros(1)).unwrap();
        let end = c.now() + SimDuration::from_micros(window_us);
        traffic.run_until(&mut c, end);
        c.run_for(SimDuration::from_millis(10));
        let sent = traffic.sent(src);
        let got = drain(&mut c);
        prop_assert_eq!(got.len() as u64, sent * (n as u64 - 1));
        let mut seen = BTreeSet::new();
        for (rcv, from, _, seq) in got {
            prop_assert!(rcv != src && from == src, "{} got a cell of {}", rcv, from);
            prop_assert!(seen.insert((rcv, seq)), "duplicate delivery of {} at {}", seq, rcv);
        }
    }

    /// Per-stream FIFO: a receiver sees one source's cells on each
    /// stream in insertion order (the driver numbers every cell).
    #[test]
    fn receiver_sees_fifo_per_stream(
        n in 3usize..6,
        window_us in 2u64..25,
        seed in any::<u64>(),
    ) {
        let mut c = booted(n, false, seed);
        let mut traffic = CellTraffic::new(seed);
        for stream in [0, 1] {
            traffic.poisson(0, cell(0, 2, stream, None), SimDuration::from_nanos(300)).unwrap();
        }
        let end = c.now() + SimDuration::from_micros(window_us);
        traffic.run_until(&mut c, end);
        c.run_for(SimDuration::from_millis(10));
        let got = drain(&mut c);
        prop_assert_eq!(got.len() as u64, traffic.sent(0));
        let mut last = [0u64; 2];
        for (rcv, _, stream, seq) in got {
            prop_assert_eq!(rcv, 2);
            let last = &mut last[stream as usize];
            prop_assert!(seq > *last, "stream {}: {} after {}", stream, seq, *last);
            *last = seq;
        }
    }

    /// Unicast cells never reach third parties.
    #[test]
    fn unicast_is_private(
        n in 3usize..7,
        window_us in 1u64..15,
        seed in any::<u64>(),
    ) {
        let dst = n as u8 - 1;
        let mut c = booted(n, false, seed);
        let before: Vec<u64> = (0..n as u8).map(|k| c.mac(k).stats().delivered).collect();
        let mut traffic = CellTraffic::new(seed);
        traffic.poisson(0, cell(0, dst, 0, Some(32)), SimDuration::from_micros(1)).unwrap();
        let end = c.now() + SimDuration::from_micros(window_us);
        traffic.run_until(&mut c, end);
        c.run_for(SimDuration::from_millis(10));
        for k in 0..n as u8 {
            let delivered = c.mac(k).stats().delivered - before[k as usize];
            let expected = if k == dst { traffic.sent(0) } else { 0 };
            prop_assert_eq!(delivered, expected, "node {}", k);
        }
    }
}
