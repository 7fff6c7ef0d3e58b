//! Property tests for the AmpDC services: file-store consistency under
//! arbitrary operation sequences, pub/sub delivery semantics, and
//! message-layer robustness under replication order and hostile
//! fragments.

use ampnet_cache::NetworkCache;
use ampnet_services::files::{FileError, FileStore, FileStoreLayout};
use ampnet_packet::{build, DmaCtrl, BROADCAST};
use ampnet_services::msg::{MsgRx, MsgTx, MAX_DATAGRAM, MSG_REGION};
use ampnet_services::subscribe::{PollOutcome, Publisher, Subscriber, TopicLayout};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum FsOp {
    Write(u8, Vec<u8>),
    Delete(u8),
    Overwrite(u8, Vec<u8>),
}

fn arb_fs_ops() -> impl Strategy<Value = Vec<FsOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u8..6, proptest::collection::vec(any::<u8>(), 0..40)).prop_map(|(n, d)| FsOp::Write(n, d)),
            (0u8..6).prop_map(FsOp::Delete),
            (0u8..6, proptest::collection::vec(any::<u8>(), 0..40))
                .prop_map(|(n, d)| FsOp::Overwrite(n, d)),
        ],
        0..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The file store agrees with an in-memory model after any op
    /// sequence, at the writer AND at a replica fed only packets.
    #[test]
    fn file_store_matches_model(ops in arb_fs_ops()) {
        let layout = FileStoreLayout { region: 1, max_files: 6, heap_bytes: 2048 };
        let mut writer = NetworkCache::new(0);
        writer.define_region(1, layout.footprint()).unwrap();
        let mut replica = NetworkCache::new(1);
        replica.define_region(1, layout.footprint()).unwrap();
        let fs = FileStore::new(layout);
        let mut model: HashMap<String, Vec<u8>> = HashMap::new();
        for op in ops {
            let (name, action): (String, _) = match op {
                FsOp::Write(n, d) | FsOp::Overwrite(n, d) => (format!("f{n}"), Some(d)),
                FsOp::Delete(n) => (format!("f{n}"), None),
            };
            match action {
                Some(data) => match fs.write(&mut writer, &name, &data) {
                    Ok(pkts) => {
                        for p in &pkts {
                            replica.apply_packet(p).unwrap();
                        }
                        model.insert(name, data);
                    }
                    Err(FileError::HeapFull | FileError::DirectoryFull) => {}
                    Err(e) => prop_assert!(false, "unexpected error {e:?}"),
                },
                None => {
                    let model_had = model.remove(&name).is_some();
                    match fs.delete(&mut writer, &name) {
                        Ok(pkts) => {
                            prop_assert!(model_had);
                            for p in &pkts {
                                replica.apply_packet(p).unwrap();
                            }
                        }
                        Err(FileError::NotFound) => prop_assert!(!model_had),
                        Err(e) => prop_assert!(false, "unexpected error {e:?}"),
                    }
                }
            }
        }
        // Both the writer's view and the replica's match the model.
        for cache in [&writer, &replica] {
            let listed = fs.list(cache).unwrap();
            prop_assert_eq!(listed.len(), model.len());
            for (name, data) in &model {
                prop_assert_eq!(&fs.read(cache, name).unwrap(), data, "file {}", name);
            }
        }
        prop_assert!(writer.converged_with(&replica));
    }

    /// Pub/sub: a subscriber that keeps up sees exactly the published
    /// sequence; one that lags sees a gap plus the most recent ring.
    #[test]
    fn subscribe_delivery_semantics(
        records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..16), 1..30),
        poll_every in 1usize..8,
    ) {
        let layout = TopicLayout { region: 2, base: 0, slots: 8, slot_len: 16 };
        let mut cache = NetworkCache::new(0);
        cache.define_region(2, layout.footprint()).unwrap();
        let mut publisher = Publisher::new(layout);
        let mut live = Subscriber::new(layout);
        let mut seen: Vec<Vec<u8>> = vec![];
        for (i, rec) in records.iter().enumerate() {
            publisher.publish(&mut cache, rec).unwrap();
            if i % poll_every == 0 {
                match live.poll(&cache).unwrap() {
                    PollOutcome::Records(rs) => seen.extend(rs),
                    PollOutcome::Lagged { records: rs, .. } => seen.extend(rs),
                    PollOutcome::Empty => {}
                }
            }
        }
        // Final drain.
        loop {
            match live.poll(&cache).unwrap() {
                PollOutcome::Records(rs) => seen.extend(rs),
                PollOutcome::Lagged { records: rs, .. } => seen.extend(rs),
                PollOutcome::Empty => break,
            }
        }
        // Keeping up within the ring: everything received, in order,
        // allowing for lag if poll_every exceeded the ring size.
        let received = seen.len() as u64 + live.lagged();
        prop_assert_eq!(received, records.len() as u64);
        // Whatever was received matches the tail of what was published
        // (records are slot_len padded, compare prefixes).
        let offset = records.len() - seen.len();
        for (got, want) in seen.iter().zip(&records[offset..]) {
            prop_assert_eq!(&got[..want.len()], &want[..]);
        }
    }

    /// Message layer: any interleaving of complete datagram packet
    /// sequences from distinct sources reassembles everything.
    #[test]
    fn msg_interleaving_reassembles(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300), 1..5),
        order_seed in any::<u64>(),
    ) {
        // One source per payload; round-robin interleave their packets
        // (per-source order preserved, as the ring guarantees).
        let mut streams: Vec<Vec<ampnet_packet::MicroPacket>> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| MsgTx::new(i as u8).send(99, 0, p))
            .collect();
        let mut rx = MsgRx::new();
        let mut delivered = vec![None; payloads.len()];
        let mut rng = order_seed;
        while streams.iter().any(|s| !s.is_empty()) {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let nonempty: Vec<usize> =
                (0..streams.len()).filter(|&i| !streams[i].is_empty()).collect();
            let pick = nonempty[(rng >> 33) as usize % nonempty.len()];
            let pkt = streams[pick].remove(0);
            if let Some(d) = rx.on_packet(&pkt) {
                delivered[d.src as usize] = Some(d.payload);
            }
        }
        for (i, p) in payloads.iter().enumerate() {
            prop_assert_eq!(delivered[i].as_ref(), Some(p), "source {}", i);
        }
        prop_assert_eq!(rx.stats().crc_errors, 0);
        prop_assert_eq!(rx.stats().sequence_errors, 0);
    }

    /// Message layer under hostile input: arbitrary message-region
    /// cells — any source, datagram id and fragment index, fragment-0
    /// headers with any length and CRC — never panic the reassembler
    /// and never grow a partial past one cell over the largest
    /// datagram (`on_packet` asserts that bound on every fragment in
    /// debug builds). Runs of consecutive fragments let partials grow.
    #[test]
    fn msg_rx_survives_hostile_fragments(
        cells in proptest::collection::vec(
            (
                0u8..3,
                0u16..4,
                prop_oneof![Just(0u32), 1u32..6, any::<u16>().prop_map(u32::from)],
                prop_oneof![0u32..400, (MAX_DATAGRAM as u32 - 8)..=(MAX_DATAGRAM as u32 + 8), any::<u32>()],
                0u16..40,
                proptest::collection::vec(any::<u8>(), 1..=64),
            ),
            1..40,
        ),
    ) {
        let mut rx = MsgRx::new();
        let mut fed = 0u64;
        for (src, id, frag, header_len, run, mut payload) in cells {
            if frag == 0 && payload.len() >= 4 {
                payload[..4].copy_from_slice(&header_len.to_be_bytes());
            }
            // Fragment `frag`, then a run of its successors.
            for f in frag..=(frag + u32::from(run)).min(0xFFFF) {
                let ctrl = DmaCtrl {
                    channel: 14,
                    region: MSG_REGION,
                    offset: ((id as u32) << 16) | f,
                    len: 0,
                };
                let pkt = build::dma(src, BROADCAST, 0, ctrl, &payload).unwrap();
                fed += 1;
                if let Some(d) = rx.on_packet(&pkt) {
                    prop_assert!(d.payload.len() <= MAX_DATAGRAM);
                    prop_assert_eq!(d.src, src);
                }
            }
        }
        let s = rx.stats();
        prop_assert!(s.delivered + s.crc_errors + s.sequence_errors <= fed);
    }
}
