//! The legacy binary-heap future-event queue, kept as the reference
//! implementation the timer wheel is tested against.
//!
//! This was the shipping [`EventQueue`](crate::EventQueue) through
//! PR 5. The timer-wheel queue replaced it everywhere; the heap stays
//! as the **differential oracle**:
//! `crates/sim/tests/queue_differential.rs` property-tests that the
//! wheel and this heap produce identical pop sequences under
//! randomized push/cancel/reschedule/same-instant workloads. The
//! heap's `(time, sequence)` ordering is trivially correct by
//! inspection, which makes it the trusted side. Nothing outside that
//! test uses it, so it is hidden from the crate's documented surface.
//!
//! Semantics are identical to the wheel: pops come out in `(time,
//! sequence)` order (FIFO within a timestamp), cancellation is lazy
//! with tombstone compaction once tombstones outnumber live entries.

use crate::queue::EventId;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

// Ordering: earliest time first, then FIFO within a timestamp.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Binary-heap future-event list with deterministic tie-breaking and
/// lazy cancellation — the pre-wheel [`crate::EventQueue`], retained
/// as the differential-test oracle.
#[derive(Debug)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Sequence numbers of events that are scheduled and not yet fired
    /// or cancelled. Entries in the heap whose seq is absent here are
    /// tombstones left behind by `cancel`.
    pending: BTreeSet<u64>,
    next_seq: u64,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            pending: BTreeSet::new(),
            next_seq: 0,
        }
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
        self.pending.insert(seq);
        EventId::from_seq(seq)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event
    /// was still pending (i.e. not yet fired or cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let removed = self.pending.remove(&id.seq());
        if removed {
            self.maybe_compact();
        }
        removed
    }

    /// Rebuild the heap without tombstones when they dominate it.
    ///
    /// Amortised O(1) per cancel: compaction costs O(n) but only runs
    /// after Ω(n) cancellations have accumulated since the last one.
    fn maybe_compact(&mut self) {
        const COMPACT_MIN: usize = 64;
        let tombstones = self.heap.len() - self.pending.len();
        if self.heap.len() < COMPACT_MIN || tombstones <= self.pending.len() {
            return;
        }
        let pending = &self.pending;
        let heap = std::mem::take(&mut self.heap);
        self.heap = heap
            .into_iter()
            .filter(|Reverse(e)| pending.contains(&e.seq))
            .collect();
    }

    /// Heap entries currently held, including tombstones.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Remove and return the next live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skip_cancelled();
        let Reverse(entry) = self.heap.pop()?;
        self.pending.remove(&entry.seq);
        Some((entry.at, entry.event))
    }

    fn skip_cancelled(&mut self) {
        while let Some(Reverse(top)) = self.heap.peek() {
            if self.pending.contains(&top.seq) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Drop every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.pending.clear();
    }
}
