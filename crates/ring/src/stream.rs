//! Multi-stream insertion scheduling (slide 7).
//!
//! "AmpNet can insert multiple data streams onto a segment at each
//! node": a node concurrently carries, e.g., a file transfer (DMA
//! MicroPackets) and a message stream (Data MicroPackets). The NIC
//! arbitrates between its local streams with deficit round robin, so
//! each stream gets line share proportional to its weight regardless of
//! packet size mix.

use crate::mac::WireFrame;
use std::collections::VecDeque;

/// One local transmit stream.
#[derive(Debug)]
struct Stream {
    queue: VecDeque<WireFrame>,
    /// DRR weight: quantum bytes added per round.
    weight: u32,
    deficit: i64,
    /// Total bytes and frames ever dequeued, for accounting.
    sent_bytes: u64,
    sent_packets: u64,
}

/// Deficit-round-robin scheduler over a node's transmit streams,
/// queueing pooled [`WireFrame`] descriptors.
#[derive(Debug)]
pub struct StreamSet {
    streams: Vec<Stream>,
    /// Round-robin cursor.
    cursor: usize,
    /// Quantum granted per weight unit per round, in bytes.
    quantum: u32,
    queued_packets: usize,
}

/// Identifier of a stream within one node (also the MicroPacket tag).
pub type StreamId = u8;

impl StreamSet {
    /// A scheduler with `n` streams of equal weight.
    pub fn new(n: usize) -> Self {
        Self::from_weights(std::iter::repeat_n(1, n))
    }

    /// A scheduler with the given per-stream weights (must be ≥ 1).
    pub fn with_weights(weights: &[u32]) -> Self {
        Self::from_weights(weights.iter().copied())
    }

    fn from_weights(weights: impl Iterator<Item = u32>) -> Self {
        let streams: Vec<Stream> = weights
            .map(|weight| {
                assert!(weight >= 1, "weights must be >= 1");
                Stream {
                    queue: VecDeque::new(),
                    weight,
                    deficit: 0,
                    sent_bytes: 0,
                    sent_packets: 0,
                }
            })
            .collect();
        assert!(!streams.is_empty(), "at least one stream");
        StreamSet {
            streams,
            cursor: 0,
            quantum: 128, // ≥ the largest MicroPacket, so progress is guaranteed
            queued_packets: 0,
        }
    }

    /// Packets waiting across all streams.
    pub fn queued_packets(&self) -> usize {
        self.queued_packets
    }

    /// Whether any stream has traffic waiting.
    pub fn has_traffic(&self) -> bool {
        self.queued_packets > 0
    }

    /// Enqueue a frame on a stream.
    pub fn enqueue(&mut self, stream: StreamId, frame: WireFrame) {
        self.streams[stream as usize].queue.push_back(frame);
        self.queued_packets += 1;
    }

    /// Pick the next frame to insert, honouring DRR fairness.
    #[expect(
        clippy::unreachable,
        reason = "quantum >= max packet size guarantees a backlogged stream sends within two rounds"
    )]
    pub fn dequeue(&mut self) -> Option<(StreamId, WireFrame)> {
        if self.queued_packets == 0 {
            return None;
        }
        // At most two full rounds are needed: one to refill deficits,
        // one to find a sendable head (quantum ≥ max packet).
        for _ in 0..self.streams.len() * 2 {
            let i = self.cursor;
            let quantum = self.quantum;
            let s = &mut self.streams[i];
            if let Some(head) = s.queue.front() {
                let need = head.wire_bytes as i64;
                if s.deficit >= need {
                    s.deficit -= need;
                    #[expect(
                        clippy::expect_used,
                        reason = "the scheduler checked non-empty before popping this head"
                    )]
                    let frame = s.queue.pop_front().expect("head exists");
                    s.sent_bytes += frame.wire_bytes as u64;
                    s.sent_packets += 1;
                    self.queued_packets -= 1;
                    // Keep the cursor: a stream may send several
                    // packets per round while its deficit lasts.
                    return Some((i as StreamId, frame));
                }
                // Not enough deficit: grant a quantum and move on.
                s.deficit += (s.weight * quantum) as i64;
                self.cursor = (i + 1) % self.streams.len();
            } else {
                // Idle streams must not bank deficit.
                s.deficit = 0;
                self.cursor = (i + 1) % self.streams.len();
            }
        }
        unreachable!("quantum >= max packet guarantees progress within two rounds");
    }

    /// Bytes sent so far per stream (for fairness metrics).
    pub fn sent_bytes(&self) -> Vec<u64> {
        self.streams.iter().map(|s| s.sent_bytes).collect()
    }

    /// Packets sent so far per stream.
    pub fn sent_packets(&self) -> Vec<u64> {
        self.streams.iter().map(|s| s.sent_packets).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampnet_packet::{build, DmaCtrl, FrameArena, MicroPacket};

    /// The descriptor of `pkt`. The scheduler reads only its sizes and
    /// control word, never the pooled frame, so the arena is dropped.
    fn frame(pkt: &MicroPacket) -> WireFrame {
        WireFrame::insert(&mut FrameArena::new(), pkt)
    }

    fn data_frame() -> WireFrame {
        frame(&build::data(0, 1, 0, [0; 8])) // 20 wire bytes
    }

    fn dma_frame() -> WireFrame {
        frame(&build::dma(
            0,
            1,
            1,
            DmaCtrl {
                channel: 0,
                region: 0,
                offset: 0,
                len: 0,
            },
            &[0u8; 64],
        )
        .unwrap()) // 84 wire bytes
    }

    #[test]
    fn empty_dequeues_none() {
        let mut s = StreamSet::new(2);
        assert!(s.dequeue().is_none());
        assert!(!s.has_traffic());
    }

    #[test]
    fn single_stream_fifo() {
        let mut s = StreamSet::new(1);
        for i in 0..5u8 {
            s.enqueue(0, frame(&build::data(0, 1, i, [i; 8])));
        }
        for i in 0..5u8 {
            let (_, p) = s.dequeue().unwrap();
            assert_eq!(p.ctrl.tag, i, "FIFO order within a stream");
        }
        assert!(s.dequeue().is_none());
    }

    #[test]
    fn equal_weights_share_bytes_fairly() {
        // Stream 0 sends small Data packets, stream 1 large DMA ones.
        let mut s = StreamSet::new(2);
        for _ in 0..400 {
            s.enqueue(0, data_frame());
        }
        for _ in 0..100 {
            s.enqueue(1, dma_frame());
        }
        // Drain ~half the total bytes, then compare per-stream bytes.
        let mut drained = 0u64;
        while drained < 4000 {
            let (_, p) = s.dequeue().unwrap();
            drained += p.wire_bytes as u64;
        }
        let sent = s.sent_bytes();
        let ratio = sent[0] as f64 / sent[1].max(1) as f64;
        assert!(
            (0.6..=1.6).contains(&ratio),
            "byte shares should be near-equal, got {sent:?}"
        );
    }

    #[test]
    fn weighted_streams_get_proportional_share() {
        let mut s = StreamSet::with_weights(&[3, 1]);
        for _ in 0..1000 {
            s.enqueue(0, data_frame());
            s.enqueue(1, data_frame());
        }
        let mut drained = 0;
        while drained < 400 {
            s.dequeue().unwrap();
            drained += 1;
        }
        let sent = s.sent_packets();
        let ratio = sent[0] as f64 / sent[1].max(1) as f64;
        assert!(
            (2.2..=3.8).contains(&ratio),
            "3:1 weights should give ~3x packets, got {sent:?}"
        );
    }

    #[test]
    fn idle_stream_does_not_bank_credit() {
        let mut s = StreamSet::new(2);
        // Stream 1 idle for a long time while stream 0 sends.
        for _ in 0..100 {
            s.enqueue(0, data_frame());
        }
        for _ in 0..100 {
            s.dequeue().unwrap();
        }
        // Now both have traffic; stream 1 must not burst ahead.
        for _ in 0..50 {
            s.enqueue(0, data_frame());
            s.enqueue(1, data_frame());
        }
        let before = s.sent_packets();
        for _ in 0..20 {
            s.dequeue().unwrap();
        }
        let after = s.sent_packets();
        let d0 = after[0] - before[0];
        let d1 = after[1] - before[1];
        assert!(
            d0.abs_diff(d1) <= 12,
            "no large burst from banked deficit: {d0} vs {d1}"
        );
    }

    #[test]
    fn counts_track() {
        let mut s = StreamSet::new(2);
        s.enqueue(0, data_frame());
        s.enqueue(1, dma_frame());
        assert_eq!(s.queued_packets(), 2);
        s.dequeue().unwrap();
        assert_eq!(s.queued_packets(), 1);
        s.dequeue().unwrap();
        assert_eq!(s.queued_packets(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn zero_streams_rejected() {
        StreamSet::with_weights(&[]);
    }
}
