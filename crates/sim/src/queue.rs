//! Deterministic future-event queue — hierarchical timer wheel.
//!
//! Through PR 5 this was a binary heap keyed on `(time, sequence)`
//! (now `HeapEventQueue` in `queue_heap.rs`, kept only as the
//! differential-test oracle). Every heap schedule/pop pays an O(log n)
//! sift through a pointer-chasing heap, which capped serial throughput
//! at ~2.1M events/s when PR 6 measured it. The wheel replaces both
//! operations with O(1) bucket pushes and amortized-O(1) cursor
//! advancement:
//!
//! * **Near wheel** — [`LEVELS`] levels of [`SLOTS`] slots each. Level
//!   `k` slots are `64^k` ns wide, so level 0 resolves single
//!   nanoseconds and the whole wheel spans `64^6` ns (~69 s) past the
//!   cursor. An entry lands in the level of its highest time-digit
//!   that differs from the cursor — one `leading_zeros` and a shift.
//! * **Overflow** — events beyond the wheel horizon (long timers,
//!   `SimTime::MAX` "never" sentinels) wait in a small `(time, seq)`
//!   min-heap and migrate into the wheel as the cursor's window
//!   reaches them.
//! * **Due batch** — the cursor advances slot-by-slot (per-level
//!   occupancy bitmaps make "next occupied slot" a couple of bit ops);
//!   higher-level slots *cascade* their entries down a level until the
//!   level-0 bucket for one exact timestamp is reached. That bucket is
//!   drained into the `due` staging queue **sorted by sequence
//!   number**, which restores global `(time, sequence)` order no
//!   matter how schedules and cascades interleaved — same-instant
//!   events pop in scheduling order, bit-identical to the heap. The
//!   differential harness (`tests/queue_differential.rs`) holds the
//!   wheel to that.
//!
//! Timers can be cancelled; cancellation is lazy (the entry stays in
//! its bucket and is skipped when drained), which keeps `cancel` O(1).
//! As in the heap, tombstones are compacted once they outnumber live
//! entries, so cancel-heavy churn keeps total storage within 2× the
//! live count.

use crate::seqset::SeqWindow;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
// The pending set is membership-only (insert/remove/contains) — it is
// never iterated, so its internals cannot leak into the schedule. It
// is hit 3–5 times per simulated event, so it is a sliding-window
// bitmap over the monotone sequence counter ([`crate::seqset`])
// rather than any flavour of hash set.


/// Handle identifying one scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    /// Build a handle from a raw sequence number (crate-internal: the
    /// heap oracle mints ids the same way the wheel does).
    pub(crate) fn from_seq(seq: u64) -> Self {
        EventId(seq)
    }

    /// The raw sequence number (crate-internal).
    pub(crate) fn seq(self) -> u64 {
        self.0
    }
}

/// Bits per wheel level: 64 slots each.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel depth. Six levels span `64^6` ns ≈ 69 s past the cursor;
/// anything further waits in the overflow heap.
const LEVELS: usize = 6;

/// Initial capacity of every bucket, reserved at construction so the
/// run-phase hot path stays allocation-free (the telemetry-overhead
/// bench asserts the whole simulator's allocs/packet budget): buckets
/// never surrender their capacity (drains are in-place or swap it
/// back), so only a bucket's *first* growth past this ever allocates.
const BUCKET_PREALLOC: usize = 8;

/// Width in nanoseconds of one slot at `level`.
#[inline]
const fn slot_width(level: usize) -> u64 {
    1u64 << (LEVEL_BITS * level as u32)
}

/// The cursor's slot index at `level`.
#[inline]
const fn slot_index(t: u64, level: usize) -> usize {
    ((t >> (LEVEL_BITS * level as u32)) as usize) & (SLOTS - 1)
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

// Ordering for the overflow heap: earliest time first, then FIFO
// within a timestamp.
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

/// Seeded defects for validating the differential harness — see
/// `tests/queue_differential.rs`, which must *detect* each of these.
/// Never enabled outside tests.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueMutation {
    /// The shipping queue: no defect.
    #[default]
    None,
    /// Skip the sequence-number sort when a level-0 bucket is drained,
    /// so same-instant events pop in cascade order instead of schedule
    /// order (the FIFO-tie-break bug the sort exists to prevent).
    UnsortedDrain,
    /// Stage beyond-horizon events as immediately due instead of
    /// parking them in the overflow heap — long timers cut ahead of
    /// nearer events still in the wheel.
    EagerOverflow,
    /// Ignore the pending-set check when settling the due queue, so
    /// lazily-cancelled events are popped instead of skipped (the
    /// wheel analog of a dropped generation bump).
    ResurrectCancelled,
}

/// A future-event list with deterministic tie-breaking and O(1) lazy
/// cancellation, implemented as a hierarchical timer wheel.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Bucket `k * SLOTS + slot` holds entries whose time digit `k`
    /// equals `slot` and whose digits above `k` equal the cursor's.
    /// Flattened to one contiguous allocation so the 384 bucket
    /// headers share a few cache lines instead of chasing two
    /// pointer levels per filing.
    buckets: Vec<Vec<Entry<E>>>,
    /// Per-level occupancy bitmap (bit `s` ⇔ bucket `k * SLOTS + s` nonempty).
    occupied: [u64; LEVELS],
    /// The wheel cursor: the timestamp of the most recently drained
    /// level-0 bucket. Entries still in the wheel all fire at or after
    /// it; entries at or before it live in `due`.
    cur: u64,
    /// Staging queue of entries ready to pop, sorted by `(at, seq)`.
    due: VecDeque<Entry<E>>,
    /// Events beyond the wheel horizon, earliest first.
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    /// Sequence numbers of events that are scheduled and not yet fired
    /// or cancelled. Stored entries whose seq is absent here are
    /// tombstones left behind by `cancel`.
    pending: SeqWindow,
    /// Tombstones still stored in a bucket, `due` or the overflow.
    dead: usize,
    /// Scratch buffer reused across cascades (keeps the steady state
    /// allocation-free).
    spill: Vec<Entry<E>>,
    next_seq: u64,
    mutation: QueueMutation,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..LEVELS * SLOTS)
                .map(|_| Vec::with_capacity(BUCKET_PREALLOC))
                .collect(),
            occupied: [0; LEVELS],
            cur: 0,
            due: VecDeque::with_capacity(SLOTS),
            overflow: BinaryHeap::with_capacity(16),
            pending: SeqWindow::new(),
            dead: 0,
            spill: Vec::with_capacity(BUCKET_PREALLOC),
            next_seq: 0,
            mutation: QueueMutation::None,
        }
    }

    /// Arm a seeded defect. Test-only: exists so the differential
    /// harness can prove it bites on a broken wheel.
    #[doc(hidden)]
    pub fn set_mutation_for_tests(&mut self, m: QueueMutation) {
        self.mutation = m;
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Entries currently stored, including tombstones. Exposed so
    /// tests can assert the compaction bound.
    pub fn heap_len(&self) -> usize {
        self.pending.len() + self.dead
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq);
        self.place(Entry { at, seq, event });
        EventId(seq)
    }

    /// File an entry into `due`, the wheel, or the overflow, relative
    /// to the current cursor.
    fn place(&mut self, e: Entry<E>) {
        let t = e.at.0;
        let x = self.cur ^ t;
        if t <= self.cur || x == 0 {
            // At or before the cursor (the heap would pop it next, in
            // (at, seq) order): merge into the sorted due queue. The
            // common case — an L0 drain or a same-instant follow-up —
            // appends at the back.
            let key = (e.at, e.seq);
            match self.due.back() {
                Some(b) if (b.at, b.seq) < key => self.due.push_back(e),
                None => self.due.push_back(e),
                _ => {
                    let pos = self
                        .due
                        .binary_search_by(|p| (p.at, p.seq).cmp(&key))
                        .unwrap_err();
                    self.due.insert(pos, e);
                }
            }
            return;
        }
        let level = ((63 - x.leading_zeros()) / LEVEL_BITS) as usize;
        if level >= LEVELS {
            if self.mutation == QueueMutation::EagerOverflow {
                // Seeded defect: stage it as due right now — it will
                // pop ahead of nearer events still in the wheel.
                let key = (e.at, e.seq);
                let pos = self
                    .due
                    .binary_search_by(|p| (p.at, p.seq).cmp(&key))
                    .unwrap_err();
                self.due.insert(pos, e);
                return;
            }
            self.overflow.push(Reverse(e));
            return;
        }
        let slot = slot_index(t, level);
        self.buckets[level * SLOTS + slot].push(e);
        self.occupied[level] |= 1 << slot;
    }

    /// Cancel a previously scheduled event. Returns `true` if the event
    /// was still pending (i.e. not yet fired or cancelled).
    ///
    /// Cancellation is lazy, but tombstones are not allowed to pile up
    /// forever: once they outnumber live entries the buckets are
    /// compacted, so cancel-heavy timer churn (roster misses, pacing
    /// reschedules) keeps storage within 2× the live-event count
    /// instead of growing unbounded at 256-node scale.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let removed = self.pending.remove(id.0);
        if removed {
            self.dead += 1;
            self.maybe_compact();
        }
        removed
    }

    /// Sweep tombstones out of every bucket when they dominate.
    ///
    /// Amortised O(1) per cancel: compaction costs O(n) but only runs
    /// after Ω(n) cancellations have accumulated since the last one.
    /// Pop order is unaffected — surviving entries keep their buckets.
    fn maybe_compact(&mut self) {
        const COMPACT_MIN: usize = 64;
        let live = self.pending.len();
        if live + self.dead < COMPACT_MIN || self.dead <= live {
            return;
        }
        let pending = &self.pending;
        for (i, bucket) in self.buckets.iter_mut().enumerate() {
            bucket.retain(|e| pending.contains(e.seq));
            if bucket.is_empty() {
                self.occupied[i / SLOTS] &= !(1 << (i % SLOTS));
            }
        }
        self.due.retain(|e| pending.contains(e.seq));
        if self.overflow.iter().any(|Reverse(e)| !pending.contains(e.seq)) {
            let heap = std::mem::take(&mut self.overflow);
            self.overflow = heap
                .into_iter()
                .filter(|Reverse(e)| pending.contains(e.seq))
                .collect();
        }
        self.dead = 0;
    }

    /// Time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle_due();
        self.due.front().map(|e| e.at)
    }

    /// Remove and return the next live event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.settle_due();
        let e = self.due.pop_front()?;
        self.pending.remove(e.seq);
        Some((e.at, e.event))
    }

    /// Pop every live event at the earliest pending instant, provided
    /// that instant is at or before `deadline`; append them to `out`
    /// in sequence order and return the instant. Equivalent to popping
    /// one at a time while `peek_time()` stays equal — the per-instant
    /// batch dispatch `Sim::pop_batch` is built on — but settles the
    /// due queue once per *instant* instead of twice per *event*.
    /// Same-instant completeness needs no wheel re-scan: every stored
    /// entry at or before the cursor is already in `due`, and the
    /// wheel/overflow only hold strictly later times.
    pub fn pop_instant_into(
        &mut self,
        deadline: SimTime,
        out: &mut Vec<(SimTime, E)>,
    ) -> Option<SimTime> {
        self.settle_due();
        let at = match self.due.front() {
            Some(f) if f.at <= deadline => f.at,
            _ => return None,
        };
        loop {
            let e = self.due.pop_front().expect("settled front vanished"); // lint: allow(panic-freedom): due was observed non-empty under the same borrow
            self.pending.remove(e.seq);
            out.push((e.at, e.event));
            // Skip tombstones to reach the next live entry (mirrors
            // `settle_due`, including the seeded-defect behavior).
            while let Some(f) = self.due.front() {
                if self.pending.contains(f.seq)
                    || self.mutation == QueueMutation::ResurrectCancelled
                {
                    break;
                }
                self.due.pop_front();
                self.dead -= 1;
            }
            match self.due.front() {
                Some(f) if f.at == at => {}
                _ => break,
            }
        }
        Some(at)
    }

    /// Ensure the front of `due` is the earliest *live* entry, pulling
    /// from the wheel and overflow as needed.
    fn settle_due(&mut self) {
        loop {
            // Skip tombstones at the front.
            while let Some(front) = self.due.front() {
                if self.pending.contains(front.seq)
                    || self.mutation == QueueMutation::ResurrectCancelled
                {
                    return;
                }
                self.due.pop_front();
                self.dead -= 1;
            }
            if !self.advance_wheel() {
                return;
            }
        }
    }

    /// Advance the cursor one step: migrate matured overflow entries,
    /// then either drain the next level-0 bucket into `due` or cascade
    /// the next occupied higher-level slot down. Returns `false` when
    /// nothing is stored anywhere.
    fn advance_wheel(&mut self) -> bool {
        // Overflow entries whose time fell inside the top-level window
        // (the cursor advanced since they were parked) re-enter the
        // wheel so they interleave correctly with near events.
        let span = slot_width(LEVELS - 1) << LEVEL_BITS; // 64^LEVELS
        // Inclusive last instant of the cursor's top-level window —
        // saturating, so events at u64::MAX migrate once the cursor's
        // window reaches them instead of being stranded by overflow.
        let window_last = (self.cur & !(span - 1)).saturating_add(span - 1);
        while let Some(Reverse(top)) = self.overflow.peek() {
            if top.at.0 > window_last {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked entry vanished"); // lint: allow(panic-freedom): pop follows a successful peek under the same borrow
            self.place(e);
        }
        if !self.due.is_empty() {
            return true;
        }
        // Find the earliest occupied slot, lowest level first. Slots
        // behind the cursor's digit are always empty (already drained
        // or cascaded), so a masked trailing_zeros finds the next one.
        for level in 0..LEVELS {
            let from = slot_index(self.cur, level);
            let bits = self.occupied[level] & (!0u64 << from);
            if bits == 0 {
                continue;
            }
            let slot = bits.trailing_zeros() as usize;
            self.occupied[level] &= !(1 << slot);
            if level == 0 {
                // One exact timestamp: drain to due in seq order. The
                // drain is in place (disjoint fields), so the bucket
                // keeps its capacity.
                self.cur = (self.cur & !(SLOTS as u64 - 1)) | slot as u64;
                let cur = self.cur;
                let pending = &self.pending;
                let mut dead = 0;
                for e in self.buckets[slot].drain(..) {
                    if pending.contains(e.seq) {
                        debug_assert_eq!(e.at.0, cur);
                        self.due.push_back(e);
                    } else {
                        dead += 1;
                    }
                }
                self.dead -= dead;
                // Singleton drains (the sparse-timestamp common case)
                // are trivially sorted; skip the contiguity shuffle.
                if self.due.len() > 1 && self.mutation != QueueMutation::UnsortedDrain {
                    self.due.make_contiguous().sort_unstable_by_key(|e| e.seq);
                }
            } else if self.buckets[level * SLOTS + slot].len() == 1 {
                // Singleton fast path — the sparse-timestamp common
                // case. This entry is the earliest stored event
                // anywhere: lower levels held nothing at or ahead of
                // the cursor, other slots and higher levels start
                // strictly later, the overflow was migrated down to
                // strictly beyond the top-level window, and `due` is
                // empty. Jump the cursor straight to its instant and
                // stage it, skipping the level-by-level re-filing.
                let e = self.buckets[level * SLOTS + slot].pop().expect("occupied slot was empty"); // lint: allow(panic-freedom): len() == 1 was just observed under the same borrow
                if self.pending.contains(e.seq) {
                    self.cur = e.at.0;
                    self.due.push_back(e);
                } else {
                    self.dead -= 1;
                }
            } else {
                // Cascade: move the cursor to the slot's start and
                // re-file its entries one level (or more) down. The
                // re-filing needs `place` (&mut self), so the bucket
                // is swapped out through the spill buffer — and its
                // own capacity is swapped back afterwards (`place`
                // never targets this slot again: every cascaded
                // entry's differing digit now sits below `level`).
                let level_span = slot_width(level) << LEVEL_BITS;
                self.cur =
                    (self.cur & !(level_span - 1)) + (slot as u64) * slot_width(level);
                let mut bucket = std::mem::take(&mut self.spill);
                std::mem::swap(&mut bucket, &mut self.buckets[level * SLOTS + slot]);
                for e in bucket.drain(..) {
                    if self.pending.contains(e.seq) {
                        self.place(e);
                    } else {
                        self.dead -= 1;
                    }
                }
                std::mem::swap(&mut bucket, &mut self.buckets[level * SLOTS + slot]);
                self.spill = bucket;
            }
            return true;
        }
        // Wheel empty: jump the cursor to the earliest overflow entry.
        // Drain EVERY entry at that instant, not just the top — the
        // invariant "overflow holds only times strictly after the
        // cursor" is what stops a later same-instant schedule (which
        // goes straight to `due`) from cutting ahead of an older event
        // still parked here.
        let jump_to = match self.overflow.peek() {
            Some(Reverse(top)) => top.at.0,
            None => return false,
        };
        self.cur = jump_to;
        while let Some(Reverse(top)) = self.overflow.peek() {
            if top.at.0 != self.cur {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked entry vanished"); // lint: allow(panic-freedom): pop follows a successful peek under the same borrow
            if self.pending.contains(e.seq) {
                self.place(e); // lands in due (at == cur), seq-ascending
            } else {
                self.dead -= 1;
            }
        }
        true
    }

    /// Drop every pending event. The cursor is retained, so the queue
    /// keeps accepting schedules relative to the owning simulator's
    /// clock.
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.occupied = [0; LEVELS];
        self.due.clear();
        self.overflow.clear();
        self.pending.clear();
        self.dead = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn cancel_pending() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(1), "a");
        q.schedule(SimTime(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel must report false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime(2), "b")));
    }

    #[test]
    fn cancel_after_fire_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(1), "a");
        assert_eq!(q.pop(), Some((SimTime(1), "a")));
        assert!(!q.cancel(a));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<&str> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(1), 1);
        q.schedule(SimTime(2), 2);
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime(2)));
        assert_eq!(q.pop(), Some((SimTime(2), 2)));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(SimTime(1), 1);
        q.schedule(SimTime(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_removes_everything() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1), 1);
        q.schedule(SimTime(2), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_heavy_churn_keeps_heap_bounded() {
        // Regression: lazy cancellation used to leave tombstones in the
        // heap forever, so a cancel/reschedule loop (timer churn) grew
        // storage without bound. With compaction it stays within a
        // small multiple of the live-event count.
        let mut q = EventQueue::new();
        let mut live: Vec<EventId> = (0..32)
            .map(|i| q.schedule(SimTime(1_000 + i), i))
            .collect();
        // Miri interprets ~100x slower; a few hundred rounds still
        // crosses several compaction cycles.
        let rounds: u64 = if cfg!(miri) { 256 } else { 10_000 };
        for round in 0..rounds {
            let slot = (round % 32) as usize;
            assert!(q.cancel(live[slot]));
            live[slot] = q.schedule(SimTime(2_000 + round), round);
            assert_eq!(q.len(), 32);
            assert!(
                q.heap_len() <= 2 * q.len().max(64),
                "round {round}: stored {} for {} live events",
                q.heap_len(),
                q.len()
            );
        }
        // The queue still pops everything, in time order.
        let mut last = SimTime(0);
        let mut popped = 0;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last);
            last = at;
            popped += 1;
        }
        assert_eq!(popped, 32);
    }

    #[test]
    fn compaction_preserves_pop_order() {
        let mut q = EventQueue::new();
        let mut keep = Vec::new();
        for i in 0..512u64 {
            let id = q.schedule(SimTime(10_000 - i * 10), i);
            if i % 7 == 0 {
                keep.push((SimTime(10_000 - i * 10), i));
            } else {
                q.cancel(id); // triggers compaction along the way
            }
        }
        keep.sort();
        for expected in keep {
            assert_eq!(q.pop(), Some(expected));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_pop_is_stable() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), 1);
        q.schedule(SimTime(10), 2);
        assert_eq!(q.pop(), Some((SimTime(10), 1)));
        q.schedule(SimTime(10), 3);
        // 2 was scheduled before 3, same timestamp.
        assert_eq!(q.pop(), Some((SimTime(10), 2)));
        assert_eq!(q.pop(), Some((SimTime(10), 3)));
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        // Beyond 64^6 ns the wheel parks events in the overflow heap;
        // they must still pop in global order, including a "never"
        // timer at SimTime::MAX.
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, "never");
        q.schedule(SimTime(90_000_000_000), "90s");
        q.schedule(SimTime(5), "soon");
        q.schedule(SimTime(70_000_000_000), "70s");
        assert_eq!(q.pop(), Some((SimTime(5), "soon")));
        assert_eq!(q.pop(), Some((SimTime(70_000_000_000), "70s")));
        assert_eq!(q.pop(), Some((SimTime(90_000_000_000), "90s")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "never")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_ties_survive_overflow_jump() {
        // Regression (found by the differential harness): two events at
        // the same beyond-horizon instant, one drained by a cursor
        // jump, plus a later direct schedule at that instant. The one
        // still in overflow must not be overtaken.
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, 0);
        q.schedule(SimTime::MAX, 1);
        assert_eq!(q.pop(), Some((SimTime::MAX, 0)));
        q.schedule(SimTime::MAX, 2);
        assert_eq!(q.pop(), Some((SimTime::MAX, 1)));
        assert_eq!(q.pop(), Some((SimTime::MAX, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cascade_preserves_fifo_ties() {
        // Two events at the same far instant, scheduled at different
        // cursor positions: one cascades in from a high level, the
        // other is filed after pops advanced the cursor. Seq order
        // must survive.
        let mut q = EventQueue::new();
        q.schedule(SimTime(100_000), 1); // far: lands in a high level
        q.schedule(SimTime(10), 0);
        assert_eq!(q.pop(), Some((SimTime(10), 0)));
        q.schedule(SimTime(100_000), 2); // nearer cursor now
        q.schedule(SimTime(100_000), 3);
        assert_eq!(q.pop(), Some((SimTime(100_000), 1)));
        assert_eq!(q.pop(), Some((SimTime(100_000), 2)));
        assert_eq!(q.pop(), Some((SimTime(100_000), 3)));
    }

    #[test]
    fn schedule_at_cursor_after_pop() {
        // An event scheduled exactly at the cursor (a same-instant
        // follow-up) pops after everything already due at that instant.
        let mut q = EventQueue::new();
        q.schedule(SimTime(50), "a");
        q.schedule(SimTime(50), "b");
        assert_eq!(q.pop(), Some((SimTime(50), "a")));
        q.schedule(SimTime(50), "c");
        assert_eq!(q.pop(), Some((SimTime(50), "b")));
        assert_eq!(q.pop(), Some((SimTime(50), "c")));
    }

    #[test]
    fn peek_is_stable_and_nondestructive() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(7), 7);
        q.schedule(SimTime(3), 3);
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime(3), 3)));
        assert_eq!(q.peek_time(), Some(SimTime(7)));
    }
}
