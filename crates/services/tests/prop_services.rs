//! Property tests for the AmpDC services: file-store consistency under
//! arbitrary operation sequences, pub/sub delivery semantics, and
//! message-layer robustness under replication order and hostile
//! fragments.

use ampnet_cache::NetworkCache;
use ampnet_services::files::{FileError, FileStore, FileStoreLayout};
use ampnet_packet::{build, DmaCtrl, MicroPacket, BROADCAST, MAX_DMA_PAYLOAD};
use ampnet_phy::crc32;
use ampnet_services::msg::{Datagram, MsgRx, MsgRxStats, MsgTx, MAX_DATAGRAM, MSG_REGION};
use ampnet_services::subscribe::{PollOutcome, Publisher, Subscriber, TopicLayout};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The receiver as it was before non-first fragments that continue a
/// partial skipped the delivered-id scan: every fragment scans its
/// source's window first. Kept verbatim (less telemetry) as the
/// reference `MsgRx` must match packet for packet.
mod reference {
    use super::*;

    const HEADER: usize = 8;
    const DEDUP_WINDOW: usize = 128;

    struct Partial {
        expected_len: usize,
        crc: u32,
        data: Vec<u8>,
        next_frag: u32,
    }

    struct DedupWindow {
        src: u8,
        ids: [u16; DEDUP_WINDOW],
        len: u16,
        head: u16,
    }

    impl DedupWindow {
        fn new(src: u8) -> Self {
            DedupWindow {
                src,
                ids: [0; DEDUP_WINDOW],
                len: 0,
                head: 0,
            }
        }

        fn contains(&self, id: u16) -> bool {
            self.ids[..self.len as usize].contains(&id)
        }

        fn push(&mut self, id: u16) {
            if (self.len as usize) < DEDUP_WINDOW {
                self.ids[self.len as usize] = id;
                self.len += 1;
            } else {
                self.ids[self.head as usize] = id;
                self.head = (self.head + 1) % DEDUP_WINDOW as u16;
            }
        }
    }

    #[derive(Default)]
    pub struct RefRx {
        partials: Vec<((u8, u16), Partial)>,
        delivered: Vec<DedupWindow>,
        pub stats: MsgRxStats,
    }

    impl RefRx {
        pub fn on_packet(&mut self, pkt: &MicroPacket) -> Option<Datagram> {
            let ampnet_packet::Body::Variable { ctrl, .. } = &pkt.body else {
                return None;
            };
            if ctrl.region != MSG_REGION {
                return None;
            }
            let src = pkt.ctrl.src;
            let stream = pkt.ctrl.tag;
            let id = (ctrl.offset >> 16) as u16;
            let frag = ctrl.offset & 0xFFFF;
            let chunk = pkt.dma_payload().expect("variable body");

            let key = (src, id);
            if self
                .delivered
                .iter()
                .find(|w| w.src == src)
                .is_some_and(|w| w.contains(id))
            {
                return None;
            }
            if frag == 0 {
                if chunk.len() < HEADER {
                    self.stats.sequence_errors += 1;
                    return None;
                }
                let expected_len =
                    u32::from_be_bytes(chunk[..4].try_into().expect("4 bytes")) as usize;
                if expected_len > MAX_DATAGRAM {
                    self.stats.sequence_errors += 1;
                    return None;
                }
                let crc = u32::from_be_bytes(chunk[4..8].try_into().expect("4 bytes"));
                let mut data = Vec::with_capacity(expected_len);
                data.extend_from_slice(&chunk[HEADER..]);
                let fresh = Partial {
                    expected_len,
                    crc,
                    data,
                    next_frag: 1,
                };
                match self.partials.iter_mut().find(|(k, _)| *k == key) {
                    Some(entry) => entry.1 = fresh,
                    None => self.partials.push((key, fresh)),
                }
            } else {
                let Some((_, p)) = self.partials.iter_mut().find(|(k, _)| *k == key) else {
                    self.stats.sequence_errors += 1;
                    return None;
                };
                if p.next_frag != frag {
                    self.stats.sequence_errors += 1;
                    self.partials.retain(|(k, _)| *k != key);
                    return None;
                }
                p.next_frag += 1;
                p.data.extend_from_slice(chunk);
                debug_assert!(p.data.len() < p.expected_len + MAX_DMA_PAYLOAD);
            }

            let done = self
                .partials
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, p)| p.data.len() >= p.expected_len)
                .unwrap_or(false);
            if done {
                let at = self
                    .partials
                    .iter()
                    .position(|(k, _)| *k == key)
                    .expect("checked");
                let (_, p) = self.partials.swap_remove(at);
                let mut payload = p.data;
                payload.truncate(p.expected_len);
                if crc32(&payload) != p.crc {
                    self.stats.crc_errors += 1;
                    return None;
                }
                self.stats.delivered += 1;
                match self.delivered.iter_mut().find(|w| w.src == src) {
                    Some(w) => w.push(id),
                    None => {
                        let mut w = DedupWindow::new(src);
                        w.push(id);
                        self.delivered.push(w);
                    }
                }
                return Some(Datagram {
                    src,
                    stream,
                    payload,
                });
            }
            None
        }
    }
}

/// One step of a hostile-but-plausible message stream.
#[derive(Debug, Clone)]
enum MsgOp {
    /// A fresh datagram of `len` bytes from `src`.
    Send(u8, u16),
    /// Fresh datagrams from two sources, their fragments interleaved.
    Interleave(u8, u16, u8, u16),
    /// Every fragment of an earlier datagram again (replay).
    Replay(Index),
    /// One fragment of an earlier datagram on its own (orphan,
    /// duplicate or restart).
    Fragment(Index, Index),
    /// A fresh datagram with one payload byte flipped (CRC failure).
    Corrupt(u8, u16, Index),
    /// A fresh datagram with two fragments swapped (out of order; a
    /// dropped fragment when both picks coincide).
    Reorder(u8, u16, Index, Index),
    /// `n` one-cell datagrams from `src`: wraps the delivered window.
    Burst(u8, u8),
}

fn arb_msg_ops() -> impl Strategy<Value = Vec<MsgOp>> {
    let src = 0u8..3;
    let len = || prop_oneof![0u16..56, 56u16..400];
    proptest::collection::vec(
        prop_oneof![
            (src.clone(), len()).prop_map(|(s, l)| MsgOp::Send(s, l)),
            (src.clone(), len(), src.clone(), len())
                .prop_map(|(a, la, b, lb)| MsgOp::Interleave(a, la, b, lb)),
            any::<Index>().prop_map(MsgOp::Replay),
            (any::<Index>(), any::<Index>()).prop_map(|(d, f)| MsgOp::Fragment(d, f)),
            (src.clone(), len(), any::<Index>()).prop_map(|(s, l, at)| MsgOp::Corrupt(s, l, at)),
            (src.clone(), 56u16..400, any::<Index>(), any::<Index>())
                .prop_map(|(s, l, a, b)| MsgOp::Reorder(s, l, a, b)),
            (src, 100u8..=200).prop_map(|(s, n)| MsgOp::Burst(s, n)),
        ],
        1..40,
    )
}

/// Senders for three sources, plus every fresh datagram's clean
/// packets so later ops can replay them.
struct MsgSources {
    tx: Vec<MsgTx>,
    sent: Vec<Vec<MicroPacket>>,
}

impl MsgSources {
    fn fresh(&mut self, src: u8, len: u16) -> Vec<MicroPacket> {
        let payload: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(src + 7)).collect();
        let pkts = self.tx[src as usize].send(9, src, &payload);
        self.sent.push(pkts.clone());
        pkts
    }

    /// Expand `ops` into one packet stream.
    fn stream(ops: &[MsgOp]) -> Vec<MicroPacket> {
        let mut s = MsgSources {
            tx: (0..3).map(MsgTx::new).collect(),
            sent: vec![],
        };
        let mut out = vec![];
        for op in ops {
            match *op {
                MsgOp::Send(src, len) => out.extend(s.fresh(src, len)),
                MsgOp::Interleave(a, la, b, lb) => {
                    let pa = s.fresh(a, la);
                    let pb = s.fresh(b, lb);
                    for i in 0..pa.len().max(pb.len()) {
                        out.extend(pa.get(i).cloned());
                        out.extend(pb.get(i).cloned());
                    }
                }
                MsgOp::Replay(d) if !s.sent.is_empty() => {
                    out.extend(s.sent[d.index(s.sent.len())].iter().cloned());
                }
                MsgOp::Fragment(d, f) if !s.sent.is_empty() => {
                    let pkts = &s.sent[d.index(s.sent.len())];
                    out.push(pkts[f.index(pkts.len())].clone());
                }
                MsgOp::Replay(_) | MsgOp::Fragment(..) => {}
                MsgOp::Corrupt(src, len, at) => {
                    let mut pkts = s.fresh(src, len);
                    let n = pkts.len();
                    let body = &mut pkts[at.index(n)].body;
                    if let ampnet_packet::Body::Variable { data, .. } = body {
                        let i = at.index(data.len());
                        data[i] ^= 0x5A;
                    }
                    out.extend(pkts);
                }
                MsgOp::Reorder(src, len, a, b) => {
                    let mut pkts = s.fresh(src, len);
                    let (i, j) = (a.index(pkts.len()), b.index(pkts.len()));
                    if i == j {
                        pkts.remove(i);
                    } else {
                        pkts.swap(i, j);
                    }
                    out.extend(pkts);
                }
                MsgOp::Burst(src, n) => {
                    for k in 0..n {
                        out.extend(s.fresh(src, u16::from(k % 8)));
                    }
                }
            }
        }
        out
    }
}

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
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
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

    /// Skipping the delivered-id scan for a fragment that continues a
    /// partial changes nothing: over streams of valid, replayed,
    /// orphan, reordered, interleaved and CRC-corrupted datagrams, with
    /// bursts that wrap each source's window, `MsgRx` returns the same
    /// datagram and the same counters as the reference after every
    /// packet.
    #[test]
    fn msg_rx_matches_scan_every_fragment_reference(ops in arb_msg_ops()) {
        let mut rx = MsgRx::new();
        let mut reference = reference::RefRx::default();
        for (i, pkt) in MsgSources::stream(&ops).iter().enumerate() {
            let got = rx.on_packet(pkt);
            let want = reference.on_packet(pkt);
            prop_assert_eq!(&got, &want, "packet {}", i);
            prop_assert_eq!(rx.stats(), reference.stats, "packet {}", i);
        }
    }
}
