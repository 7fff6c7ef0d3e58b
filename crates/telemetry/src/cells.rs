//! The record path: every word `inc`/`add`/`set`/`record`/`flight`
//! write is an `AtomicU64` cell in this module, and writing one takes
//! no lock and no atomic read-modify-write.
//!
//! **Single-writer rule.** Recording is a relaxed load followed by a
//! relaxed store. That is exact as long as at most one thread records
//! into a registry at a time and hand-offs between threads synchronise
//! (a thread join, a channel, a mutex — the sharded engine's scoped
//! join does). Two threads recording into the *same* registry
//! concurrently lose updates; they cannot corrupt memory, and nothing
//! here is `unsafe`. Readers ([`Cells::load`], [`Cells::histogram`],
//! [`FlightRing::events`]) see exact values once the writer has been
//! joined, and possibly torn multi-word values (a histogram, a flight
//! event) while it is still running.
//!
//! [`Cells`] is append-only and grows without moving: chunk `k` holds
//! `2048 << k` cells and is allocated the first time a registration
//! reaches it, so a handle is a plain cell index that stays valid for
//! the registry's life and the record path finds its cell with a
//! leading-zero count, one acquire load of the chunk pointer and an
//! index.

use crate::hist::{Histogram, BUCKETS};
use crate::metric::Plane;
use crate::recorder::{FlightEvent, FlightKind};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

/// log2 of the first (smallest) chunk's length.
const FIRST_BITS: u32 = 11;
/// Chunk `k` holds `1 << (FIRST_BITS + k)` cells, so this many chunks
/// cover every `u32` index.
const CHUNKS: usize = (u32::BITS - FIRST_BITS + 1) as usize;

/// Cells of one histogram: a five-word header, then the buckets.
pub(crate) const HIST_CELLS: usize = HIST_HEADER + BUCKETS;
const HIST_COUNT: usize = 0;
const HIST_SUM_LO: usize = 1;
const HIST_SUM_HI: usize = 2;
const HIST_MIN: usize = 3;
const HIST_MAX: usize = 4;
const HIST_HEADER: usize = 5;
// `reserve` skips at most one chunk tail to place a block.
const _: () = assert!(HIST_CELLS as u64 <= chunk_len(0));

const fn chunk_len(chunk: usize) -> u64 {
    1 << (FIRST_BITS as usize + chunk)
}

/// Index of the first cell of `chunk`.
fn chunk_start(chunk: usize) -> u64 {
    chunk_len(chunk) - chunk_len(0)
}

/// `(chunk, offset within it)` of cell `idx`.
#[inline]
fn locate(idx: u32) -> (usize, usize) {
    let n = u64::from(idx) + chunk_len(0);
    let chunk = (n.ilog2() - FIRST_BITS) as usize;
    (chunk, (n - chunk_len(chunk)) as usize)
}

fn zeroed(len: usize) -> Box<[AtomicU64]> {
    (0..len).map(|_| AtomicU64::new(0)).collect()
}

/// `cell += n` by its only writer.
#[inline]
fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Relaxed) + n, Relaxed);
}

/// Append-only storage for every counter, gauge and histogram of one
/// registry. A zeroed cell is a zero counter or gauge; a zeroed block
/// of [`HIST_CELLS`] is an empty histogram.
#[derive(Debug)]
pub(crate) struct Cells {
    chunks: [OnceLock<Box<[AtomicU64]>>; CHUNKS],
}

impl Cells {
    pub(crate) fn new() -> Self {
        Cells {
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Cold side: the start of `len` contiguous cells at or after
    /// `cursor`, their chunk allocated. A block never straddles two
    /// chunks — the tail of a chunk too short for it is skipped.
    /// `None` once the `u32` index space is used up (`u32::MAX` itself
    /// is never handed out: it is the inert `NONE` handle).
    pub(crate) fn reserve(&self, cursor: u32, len: usize) -> Option<u32> {
        debug_assert!(len <= HIST_CELLS);
        let (mut chunk, mut off) = locate(cursor);
        if (off + len) as u64 > chunk_len(chunk) {
            (chunk, off) = (chunk + 1, 0);
        }
        let start = chunk_start(chunk) + off as u64;
        if start + len as u64 > u64::from(u32::MAX) {
            return None;
        }
        self.chunks
            .get(chunk)?
            .get_or_init(|| zeroed(chunk_len(chunk) as usize));
        Some(start as u32)
    }

    /// The cell at `idx`; `None` for `NONE` handles and anything else
    /// no registration reached.
    #[inline]
    fn cell(&self, idx: u32) -> Option<&AtomicU64> {
        let (chunk, off) = locate(idx);
        self.chunks.get(chunk)?.get()?.get(off)
    }

    /// The histogram block starting at `idx`.
    #[inline]
    fn hist_block(&self, idx: u32) -> Option<&[AtomicU64]> {
        let (chunk, off) = locate(idx);
        self.chunks.get(chunk)?.get()?.get(off..off + HIST_CELLS)
    }

    /// Add `n` to the counter cell at `idx`.
    #[inline]
    pub(crate) fn add(&self, idx: u32, n: u64) {
        if let Some(cell) = self.cell(idx) {
            bump(cell, n);
        }
    }

    /// Overwrite the gauge cell at `idx`.
    #[inline]
    pub(crate) fn set(&self, idx: u32, v: u64) {
        if let Some(cell) = self.cell(idx) {
            cell.store(v, Relaxed);
        }
    }

    /// Record `sample` into the histogram block at `idx`.
    #[inline]
    pub(crate) fn record(&self, idx: u32, sample: u64) {
        let Some(h) = self.hist_block(idx) else { return };
        let count = h[HIST_COUNT].load(Relaxed);
        h[HIST_COUNT].store(count + 1, Relaxed);
        let (lo, carry) = h[HIST_SUM_LO].load(Relaxed).overflowing_add(sample);
        h[HIST_SUM_LO].store(lo, Relaxed);
        if carry {
            bump(&h[HIST_SUM_HI], 1);
        }
        if count == 0 || sample < h[HIST_MIN].load(Relaxed) {
            h[HIST_MIN].store(sample, Relaxed);
        }
        if sample > h[HIST_MAX].load(Relaxed) {
            h[HIST_MAX].store(sample, Relaxed);
        }
        bump(&h[HIST_HEADER + Histogram::index_of(sample)], 1);
    }

    /// Value of the cell at `idx` (0 when there is none).
    pub(crate) fn load(&self, idx: u32) -> u64 {
        self.cell(idx).map_or(0, |cell| cell.load(Relaxed))
    }

    /// Cold side: the histogram block at `idx` as a plain
    /// [`Histogram`] (empty when there is none).
    pub(crate) fn histogram(&self, idx: u32) -> Histogram {
        let Some(h) = self.hist_block(idx) else {
            return Histogram::new();
        };
        let word = |i: usize| h[i].load(Relaxed);
        let count = word(HIST_COUNT);
        Histogram::from_parts(
            h[HIST_HEADER..].iter().map(|b| b.load(Relaxed)).collect(),
            count,
            u128::from(word(HIST_SUM_HI)) << 64 | u128::from(word(HIST_SUM_LO)),
            if count == 0 { u64::MAX } else { word(HIST_MIN) },
            word(HIST_MAX),
        )
    }
}

/// Words per flight event: `at_ns`, the packed `node | plane | kind`
/// tag, `a`, `b`.
const EVENT_WORDS: usize = 4;

/// The flight recorder's storage: a ring of the last N events, four
/// words each, allocated whole at construction.
#[derive(Debug)]
pub(crate) struct FlightRing {
    words: Box<[AtomicU64]>,
    /// Events ever recorded; the next slot is this modulo capacity.
    recorded: AtomicU64,
}

impl FlightRing {
    /// Ring with room for `capacity` events (capacity must be > 0).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs capacity > 0");
        FlightRing {
            words: zeroed(capacity * EVENT_WORDS),
            recorded: AtomicU64::new(0),
        }
    }

    fn capacity(&self) -> u64 {
        (self.words.len() / EVENT_WORDS) as u64
    }

    fn slot(&self, n: u64) -> &[AtomicU64] {
        let at = (n % self.capacity()) as usize * EVENT_WORDS;
        &self.words[at..at + EVENT_WORDS]
    }

    /// Append an event, overwriting the oldest once full.
    #[inline]
    pub(crate) fn record(&self, ev: FlightEvent) {
        let n = self.recorded.load(Relaxed);
        let slot = self.slot(n);
        let tag = u64::from(ev.node) | (ev.plane as u64) << 8 | (ev.kind as u64) << 16;
        slot[0].store(ev.at_ns, Relaxed);
        slot[1].store(tag, Relaxed);
        slot[2].store(ev.a, Relaxed);
        slot[3].store(ev.b, Relaxed);
        self.recorded.store(n + 1, Relaxed);
    }

    /// Total events ever recorded (including overwritten ones).
    pub(crate) fn recorded(&self) -> u64 {
        self.recorded.load(Relaxed)
    }

    /// Events currently retained (≤ capacity).
    pub(crate) fn len(&self) -> usize {
        self.recorded().min(self.capacity()) as usize
    }

    /// Cold side: the retained events, oldest first.
    pub(crate) fn events(&self) -> impl Iterator<Item = FlightEvent> + '_ {
        let recorded = self.recorded();
        (recorded - self.len() as u64..recorded).map(|n| {
            let slot = self.slot(n);
            let tag = slot[1].load(Relaxed);
            let code = |shift: u32| (tag >> shift) as u8 as usize;
            FlightEvent {
                at_ns: slot[0].load(Relaxed),
                node: tag as u8,
                plane: Plane::ALL.get(code(8)).copied().unwrap_or(Plane::Phy),
                kind: FlightKind::ALL.get(code(16)).copied().unwrap_or_default(),
                a: slot[2].load(Relaxed),
                b: slot[3].load(Relaxed),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_geometry_tiles_the_index_space() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(2047), (0, 2047));
        assert_eq!(locate(2048), (1, 0));
        assert_eq!(locate(6143), (1, 4095));
        assert_eq!(locate(6144), (2, 0));
        let (chunk, off) = locate(u32::MAX);
        assert_eq!(chunk, CHUNKS - 1);
        assert!((off as u64) < chunk_len(chunk));
        for chunk in 0..CHUNKS - 1 {
            assert_eq!(
                chunk_start(chunk) + chunk_len(chunk),
                chunk_start(chunk + 1)
            );
            assert_eq!(locate(chunk_start(chunk) as u32), (chunk, 0));
        }
    }

    #[test]
    fn unreserved_and_none_indices_are_inert() {
        let cells = Cells::new();
        for idx in [0, 5000, u32::MAX] {
            cells.add(idx, 9);
            cells.set(idx, 9);
            cells.record(idx, 9);
            assert_eq!(cells.load(idx), 0);
            assert!(cells.histogram(idx).is_empty());
        }
        assert!(
            cells.chunks.iter().all(|c| c.get().is_none()),
            "nothing allocated"
        );
    }

    #[test]
    fn reserve_allocates_lazily_and_never_straddles() {
        let cells = Cells::new();
        assert_eq!(cells.reserve(0, 1), Some(0));
        assert!(
            cells.chunks[1].get().is_none(),
            "only the chunk reached is allocated"
        );
        // 1029 cells do not fit the 1023 left in chunk 0: skip to chunk 1.
        assert_eq!(cells.reserve(1025, HIST_CELLS), Some(2048));
        assert_eq!(cells.chunks[1].get().map(|c| c.len()), Some(4096));
        // ... but fit exactly at the end of chunk 1.
        let last = 6144 - HIST_CELLS as u32;
        assert_eq!(cells.reserve(last, HIST_CELLS), Some(last));
        assert!(cells.chunks[2].get().is_none());
        cells.record(last, 77);
        assert_eq!(cells.histogram(last).max(), 77);
        // The index space ends one short of the NONE handle.
        assert_eq!(cells.reserve(u32::MAX, 1), None);
        assert_eq!(cells.reserve(u32::MAX - 1, 2), None);
    }

    #[test]
    fn histogram_cells_match_the_plain_histogram() {
        let cells = Cells::new();
        let at = cells.reserve(0, HIST_CELLS).unwrap();
        let mut plain = Histogram::new();
        assert!(cells.histogram(at).is_empty());
        assert_eq!(cells.histogram(at).min(), 0);
        for v in [700u64, 3, u64::MAX, 0, 1 << 40, u64::MAX, 12_345] {
            cells.record(at, v);
            plain.record(v);
        }
        let got = cells.histogram(at);
        assert_eq!(got.count(), plain.count());
        assert_eq!(got.sum(), plain.sum(), "sum carries past 64 bits");
        assert_eq!((got.min(), got.max()), (plain.min(), plain.max()));
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(got.quantile(q), plain.quantile(q));
        }
    }

    #[test]
    fn flight_tag_round_trips_every_plane_and_kind() {
        let ring = FlightRing::new(Plane::ALL.len() * FlightKind::ALL.len());
        let mut sent = vec![];
        for plane in Plane::ALL {
            for kind in FlightKind::ALL {
                let ev = FlightEvent {
                    at_ns: sent.len() as u64,
                    node: 255 - sent.len() as u8,
                    plane,
                    kind,
                    a: u64::MAX,
                    b: 1,
                };
                ring.record(ev);
                sent.push(ev);
            }
        }
        assert_eq!(ring.events().collect::<Vec<_>>(), sent);
    }
}
