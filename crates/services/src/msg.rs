//! Message layer: arbitrary-size datagrams over MicroPackets.
//!
//! This is the substrate under AmpIP (slide 12: the IP stack rides the
//! AmpNet driver) and the MPI/PVM-style messaging the paper's software
//! diagram shows. A datagram is fragmented into DMA MicroPackets on a
//! dedicated *message channel*; the ring's per-source FIFO makes
//! reassembly trivial and loss-free. A CRC-32 trailer guards each
//! datagram end to end.
//!
//! Wire convention: message fragments use DMA packets whose
//! `DmaCtrl.region` is [`MSG_REGION`] (a sentinel never used by the
//! network cache) and whose `offset` packs `(datagram id << 16) |
//! fragment index`. Fragment 0 carries an 8-byte header: total length
//! (u32) + CRC-32 of the payload.

use ampnet_packet::{build, Body, DmaCtrl, MicroPacket, MAX_DMA_PAYLOAD};
use ampnet_phy::crc32;
use ampnet_telemetry::{defs, CounterHandle, Telemetry};

/// Sentinel region id marking message traffic (not a cache region).
pub const MSG_REGION: u8 = 0xFE;

/// Header bytes in fragment 0.
const HEADER: usize = 8;

/// Maximum datagram size: 16-bit fragment index × cell payload.
pub const MAX_DATAGRAM: usize = (u16::MAX as usize) * MAX_DMA_PAYLOAD - HEADER;

/// Sender side: fragments datagrams.
///
/// ```
/// use ampnet_services::msg::{MsgTx, MsgRx};
///
/// let mut tx = MsgTx::new(1);
/// let mut rx = MsgRx::new();
/// let packets = tx.send(2, 0, b"a datagram larger than one cell................................");
/// let mut delivered = None;
/// for p in &packets {
///     delivered = delivered.or(rx.on_packet(p));
/// }
/// assert!(delivered.unwrap().payload.starts_with(b"a datagram"));
/// ```
#[derive(Debug)]
pub struct MsgTx {
    node: u8,
    next_id: u16,
    sent_datagrams: u64,
    sent_bytes: u64,
    tel: Telemetry,
    msgs_sent: CounterHandle,
    fragments: CounterHandle,
}

impl MsgTx {
    /// New sender for `node`.
    pub fn new(node: u8) -> Self {
        MsgTx {
            node,
            next_id: 0,
            sent_datagrams: 0,
            sent_bytes: 0,
            tel: Telemetry::disabled(),
            msgs_sent: CounterHandle::NONE,
            fragments: CounterHandle::NONE,
        }
    }

    /// Register this sender's service-plane counters in `tel`.
    pub fn instrument(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
        self.msgs_sent = tel.counter(&defs::SERVICES_MSGS_SENT, self.node);
        self.fragments = tel.counter(&defs::SERVICES_MSG_FRAGMENTS, self.node);
    }

    /// Datagrams sent.
    pub fn sent_datagrams(&self) -> u64 {
        self.sent_datagrams
    }

    /// Payload bytes sent.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// Fragment `payload` into MicroPackets for `dst` on `stream`.
    /// `tag` is an application demultiplexing label (rides in the
    /// packet stream id together with the channel).
    pub fn send(&mut self, dst: u8, stream: u8, payload: &[u8]) -> Vec<MicroPacket> {
        assert!(payload.len() <= MAX_DATAGRAM, "datagram too large");
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.sent_datagrams += 1;
        self.sent_bytes += payload.len() as u64;

        // Fragment 0: header + first payload bytes.
        let mut wire = Vec::with_capacity(HEADER + payload.len());
        wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        wire.extend_from_slice(&crc32(payload).to_be_bytes());
        wire.extend_from_slice(payload);

        let pkts: Vec<MicroPacket> = wire
            .chunks(MAX_DMA_PAYLOAD)
            .enumerate()
            .map(|(i, chunk)| {
                let ctrl = DmaCtrl {
                    channel: 14, // message channel
                    region: MSG_REGION,
                    offset: ((id as u32) << 16) | (i as u32),
                    len: 0,
                };
                build::dma(self.node, dst, stream, ctrl, chunk).expect("chunk in 1..=64")
            })
            .collect();
        self.tel.inc(self.msgs_sent);
        self.tel.add(self.fragments, pkts.len() as u64);
        pkts
    }
}

/// A reassembled datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Sending node.
    pub src: u8,
    /// Stream it arrived on.
    pub stream: u8,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Reassembly errors (counted, not fatal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MsgRxStats {
    /// Complete datagrams delivered.
    pub delivered: u64,
    /// Datagrams discarded for CRC mismatch.
    pub crc_errors: u64,
    /// Fragments that arrived out of sequence (ring FIFO violated —
    /// should never happen).
    pub sequence_errors: u64,
}

#[derive(Debug)]
struct Partial {
    expected_len: usize,
    crc: u32,
    data: Vec<u8>,
    next_frag: u32,
}

/// Delivered-id window entries retained per source for replay dedup.
/// Sources replay *all* outstanding datagrams after rostering, so the
/// window must cover every datagram that can be in flight at once —
/// one remembered id is not enough (an older already-delivered
/// datagram would re-deliver as a duplicate).
const DEDUP_WINDOW: usize = 128;

/// Per-source window of recently delivered datagram ids: the last
/// [`DEDUP_WINDOW`] ids, in a vector that grows with the ids delivered
/// and, once full, overwrites the oldest. Exact-match lookup (not a
/// `≤` cursor): a datagram whose first delivery attempt failed CRC
/// must still deliver when replayed, even if newer ids from the same
/// source landed in between.
#[derive(Debug)]
struct DedupWindow {
    src: u8,
    /// Next overwrite position once the window is full (oldest entry).
    head: u16,
    ids: Vec<u16>,
}

impl DedupWindow {
    fn new(src: u8) -> Self {
        DedupWindow {
            src,
            head: 0,
            ids: Vec::new(),
        }
    }

    #[inline]
    fn contains(&self, id: u16) -> bool {
        self.ids.contains(&id)
    }

    fn push(&mut self, id: u16) {
        if self.ids.len() < DEDUP_WINDOW {
            self.ids.push(id);
        } else {
            self.ids[self.head as usize] = id;
            self.head = (self.head + 1) % DEDUP_WINDOW as u16;
        }
    }
}

/// Receiver side: reassembles datagrams per (source, datagram id).
///
/// Both lookup structures are linear-scan vectors, not maps: a
/// receiver holds at most a handful of in-flight partials and one
/// bounded dedup window per source, so the scan beats hashing on
/// the packet hot path and order never influences behaviour (keyed
/// access only). The dedup window used to be a single flat
/// `Vec<(src, id)>` scanned end to end on *every* packet; with many
/// sources that scan (up to `sources × DEDUP_WINDOW` entries) was the
/// hottest function in serial multi-segment profiles. The per-source
/// ring keeps the identical delivered-id semantics with a bounded
/// 128-entry probe.
#[derive(Debug, Default)]
pub struct MsgRx {
    partials: Vec<((u8, u16), Partial)>,
    /// One delivered-id window per source, created on first delivery.
    delivered: Vec<DedupWindow>,
    stats: MsgRxStats,
    tel: Telemetry,
    assembled: CounterHandle,
}

impl MsgRx {
    /// New reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register this receiver's service-plane counters in `tel`,
    /// labelled with the owning `node`.
    pub fn instrument(&mut self, tel: &Telemetry, node: u8) {
        self.tel = tel.clone();
        self.assembled = tel.counter(&defs::SERVICES_MSGS_ASSEMBLED, node);
    }

    /// Counters.
    pub fn stats(&self) -> MsgRxStats {
        self.stats
    }

    /// Is this well-formed packet message traffic: a DMA cell into the
    /// message region?
    pub fn is_message(pkt: &MicroPacket) -> bool {
        matches!(&pkt.body, Body::Variable { ctrl, .. } if ctrl.region == MSG_REGION)
    }

    /// Feed a well-formed packet; returns a datagram when one completes.
    pub fn on_packet(&mut self, pkt: &MicroPacket) -> Option<Datagram> {
        let Body::Variable { ctrl, data } = &pkt.body else {
            return None;
        };
        if ctrl.region != MSG_REGION {
            return None;
        }
        let src = pkt.ctrl.src;
        let stream = pkt.ctrl.tag;
        let id = (ctrl.offset >> 16) as u16;
        let frag = ctrl.offset & 0xFFFF;
        let chunk = &data[..ctrl.len as usize];

        let key = (src, id);
        // Invariant: a key that has a partial is never in its source's
        // delivered window. A partial is created only after fragment 0
        // passed the window check, and an id enters the window only
        // when its delivery removes the partial. So a later fragment
        // that continues a partial goes straight to reassembly; only
        // fragment 0 and an orphan fragment need the window scan.
        let partial = if frag == 0 {
            None
        } else {
            self.partials.iter().position(|(k, _)| *k == key)
        };
        if partial.is_none()
            && self
                .delivered
                .iter()
                .find(|w| w.src == src)
                .is_some_and(|w| w.contains(id))
        {
            // Retransmission of an already-delivered datagram
            // (post-rostering replay): drop silently.
            return None;
        }
        let at = if frag == 0 {
            if chunk.len() < HEADER {
                self.stats.sequence_errors += 1;
                return None;
            }
            let expected_len =
                u32::from_be_bytes(chunk[..4].try_into().expect("4 bytes")) as usize;
            if expected_len > MAX_DATAGRAM {
                // No sender can have fragmented this (`MsgTx::send`
                // refuses it): a forged or corrupted header. The
                // length sizes the reassembly buffer, so it is bounded
                // before anything is reserved.
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
            match self.partials.iter().position(|(k, _)| *k == key) {
                Some(at) => {
                    self.partials[at].1 = fresh;
                    at
                }
                None => {
                    self.partials.push((key, fresh));
                    self.partials.len() - 1
                }
            }
        } else {
            let Some(at) = partial else {
                self.stats.sequence_errors += 1;
                return None;
            };
            let p = &mut self.partials[at].1;
            if p.next_frag != frag {
                self.stats.sequence_errors += 1;
                self.partials.swap_remove(at);
                return None;
            }
            p.next_frag += 1;
            p.data.extend_from_slice(chunk);
            // A partial completes the moment it reaches its length, so
            // it holds at most one cell past a length bounded above.
            debug_assert!(p.data.len() < p.expected_len + MAX_DMA_PAYLOAD);
            at
        };

        let p = &self.partials[at].1;
        if p.data.len() < p.expected_len {
            return None;
        }
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
        self.tel.inc(self.assembled);
        Some(Datagram {
            src,
            stream,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_datagram_roundtrip() {
        let mut tx = MsgTx::new(1);
        let mut rx = MsgRx::new();
        let pkts = tx.send(2, 0, b"");
        assert_eq!(pkts.len(), 1);
        let d = rx.on_packet(&pkts[0]).expect("complete");
        assert_eq!(d.payload, b"");
        assert_eq!(d.src, 1);
    }

    #[test]
    fn small_datagram_single_fragment() {
        let mut tx = MsgTx::new(3);
        let mut rx = MsgRx::new();
        let pkts = tx.send(2, 5, b"hello ampnet");
        assert_eq!(pkts.len(), 1);
        let d = rx.on_packet(&pkts[0]).unwrap();
        assert_eq!(d.payload, b"hello ampnet");
        assert_eq!(d.stream, 5);
        assert_eq!(rx.stats().delivered, 1);
    }

    #[test]
    fn forged_length_is_counted_not_reserved() {
        // Fragment 0 of datagram 0 from node 1, claiming 4 GiB − 1.
        let mut header = [0u8; HEADER];
        header[..4].copy_from_slice(&[0xFF; 4]);
        let ctrl = DmaCtrl {
            channel: 0,
            region: MSG_REGION,
            offset: 0,
            len: 0,
        };
        let forged = build::dma(1, 2, 0, ctrl, &header).expect("one cell");
        let mut rx = MsgRx::new();
        assert!(rx.on_packet(&forged).is_none());
        assert_eq!(rx.stats().sequence_errors, 1);
        assert!(rx.partials.is_empty(), "nothing stored for it");
        // The same source's next well-formed datagram still delivers
        // (it reuses id 0, which the forgery must not have claimed).
        let mut tx = MsgTx::new(1);
        let d = tx.send(2, 0, b"after the forgery").into_iter().find_map(|p| rx.on_packet(&p));
        assert_eq!(d.expect("delivered").payload, b"after the forgery");
        assert_eq!(rx.stats().delivered, 1);
    }

    #[test]
    fn multi_fragment_reassembly() {
        let mut tx = MsgTx::new(1);
        let mut rx = MsgRx::new();
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let pkts = tx.send(2, 0, &payload);
        assert_eq!(pkts.len(), 1008usize.div_ceil(64));
        let mut got = None;
        for (i, p) in pkts.iter().enumerate() {
            let r = rx.on_packet(p);
            if i + 1 < pkts.len() {
                assert!(r.is_none(), "complete before last fragment");
            } else {
                got = r;
            }
        }
        assert_eq!(got.unwrap().payload, payload);
    }

    #[test]
    fn interleaved_sources_reassemble_independently() {
        let mut tx1 = MsgTx::new(1);
        let mut tx2 = MsgTx::new(2);
        let mut rx = MsgRx::new();
        let a = vec![0xAA; 200];
        let b = vec![0xBB; 200];
        let pa = tx1.send(9, 0, &a);
        let pb = tx2.send(9, 0, &b);
        let mut delivered = vec![];
        for (x, y) in pa.iter().zip(pb.iter()) {
            if let Some(d) = rx.on_packet(x) {
                delivered.push(d);
            }
            if let Some(d) = rx.on_packet(y) {
                delivered.push(d);
            }
        }
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[0].payload, a);
        assert_eq!(delivered[1].payload, b);
    }

    #[test]
    fn corrupted_payload_caught_by_crc() {
        let mut tx = MsgTx::new(1);
        let mut rx = MsgRx::new();
        let mut pkts = tx.send(2, 0, &[7u8; 100]);
        // Corrupt a byte in the second fragment.
        if let ampnet_packet::Body::Variable { data, .. } = &mut pkts[1].body {
            data[3] ^= 0xFF;
        }
        let mut out = None;
        for p in &pkts {
            out = out.or(rx.on_packet(p));
        }
        assert!(out.is_none());
        assert_eq!(rx.stats().crc_errors, 1);
    }

    #[test]
    fn missing_fragment_detected() {
        let mut tx = MsgTx::new(1);
        let mut rx = MsgRx::new();
        let pkts = tx.send(2, 0, &vec![1u8; 300]);
        // Skip fragment 2.
        for (i, p) in pkts.iter().enumerate() {
            if i != 2 {
                assert!(rx.on_packet(p).is_none());
            }
        }
        assert!(rx.stats().sequence_errors > 0);
    }

    #[test]
    fn non_message_packets_ignored() {
        let mut rx = MsgRx::new();
        let data = build::data(0, 1, 0, [0; 8]);
        assert!(rx.on_packet(&data).is_none());
        let cache_dma = build::dma(
            0,
            1,
            0,
            DmaCtrl {
                channel: 0,
                region: 3, // a real cache region
                offset: 0,
                len: 0,
            },
            &[1, 2, 3],
        )
        .unwrap();
        assert!(!MsgRx::is_message(&cache_dma));
        assert!(rx.on_packet(&cache_dma).is_none());
    }

    #[test]
    fn retransmitted_datagram_deduplicated() {
        let mut tx = MsgTx::new(1);
        let mut rx = MsgRx::new();
        let pkts = tx.send(2, 0, b"once only");
        assert!(rx.on_packet(&pkts[0]).is_some());
        // Full replay (the ring healed and the source retransmitted).
        for p in &pkts {
            assert!(rx.on_packet(p).is_none(), "duplicate delivered");
        }
        assert_eq!(rx.stats().delivered, 1);
    }

    #[test]
    fn replayed_older_datagram_deduplicated() {
        // Regression: the receiver used to remember only the *last*
        // delivered id per source, so a post-rostering replay of an
        // older already-delivered datagram re-delivered it as a
        // duplicate (and regressed the remembered id).
        let mut tx = MsgTx::new(1);
        let mut rx = MsgRx::new();
        let d0 = tx.send(2, 0, b"first");
        let d1 = tx.send(2, 0, b"second");
        assert!(rx.on_packet(&d0[0]).is_some());
        assert!(rx.on_packet(&d1[0]).is_some());
        // The source replays both outstanding datagrams, oldest first.
        for p in d0.iter().chain(d1.iter()) {
            assert!(rx.on_packet(p).is_none(), "duplicate delivered");
        }
        assert_eq!(rx.stats().delivered, 2);
        // A genuinely new datagram still delivers.
        let d2 = tx.send(2, 0, b"third");
        assert!(rx.on_packet(&d2[0]).is_some());
        assert_eq!(rx.stats().delivered, 3);
    }

    #[test]
    fn crc_failed_datagram_delivers_on_replay() {
        // The dedup window records *delivered* ids only: a datagram
        // whose first copy was corrupted must go through when the
        // source replays it, even after newer ids were delivered.
        let mut tx = MsgTx::new(1);
        let mut rx = MsgRx::new();
        let mut bad = tx.send(2, 0, &[7u8; 100]);
        if let ampnet_packet::Body::Variable { data, .. } = &mut bad[1].body {
            data[3] ^= 0xFF;
        }
        let good = tx.send(2, 0, b"newer");
        for p in &bad {
            assert!(rx.on_packet(p).is_none());
        }
        assert_eq!(rx.stats().crc_errors, 1);
        assert!(rx.on_packet(&good[0]).is_some());
        // Clean replay of the corrupted datagram: delivers now.
        let clean = {
            let mut tx_replay = MsgTx::new(1);
            tx_replay.send(2, 0, &[7u8; 100]) // same id 0 as `bad`
        };
        let mut out = None;
        for p in &clean {
            out = out.or(rx.on_packet(p));
        }
        assert_eq!(out.expect("replay delivers").payload, vec![7u8; 100]);
    }

    #[test]
    fn many_datagrams_sequentially() {
        let mut tx = MsgTx::new(4);
        let mut rx = MsgRx::new();
        for n in 0..100u32 {
            let payload = n.to_be_bytes().repeat(10);
            let pkts = tx.send(5, 1, &payload);
            let mut got = None;
            for p in &pkts {
                got = got.or(rx.on_packet(p));
            }
            assert_eq!(got.unwrap().payload, payload);
        }
        assert_eq!(tx.sent_datagrams(), 100);
        assert_eq!(rx.stats().delivered, 100);
    }
}
