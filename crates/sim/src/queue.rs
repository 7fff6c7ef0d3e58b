//! Deterministic future-event queue — one binary heap keyed on
//! `(time, sequence)`.
//!
//! The live queue is small: a few entries per node plus the
//! pre-scheduled faults and application timers — 30 to 150 stored
//! entries on every workload the repo runs (`ampnet-core` pins the
//! high-water under 256 in a unit test). At that depth a contiguous
//! implicit heap is a handful of cache lines and a pop is ~7
//! comparisons, which beats any structure whose footprint scales with
//! the time horizon instead of the population (DESIGN.md §13 has the
//! measurements, including the six-level timer wheel this replaced).
//!
//! * **Order** — entries pop in `(time, sequence)` order; the sequence
//!   number is the schedule counter, so same-instant events pop in
//!   scheduling order (FIFO tie-break) and the schedule is a pure
//!   function of the calls made. A caller that knows an event's place
//!   before it knows whether the event is needed takes the number
//!   first ([`EventQueue::reserve_seq`]) and pushes later, or never
//!   ([`EventQueue::schedule_reserved`]): the order is that of the
//!   numbers, not of the pushes.
//! * **Every stored entry is live** — `schedule` is a heap push, `pop`
//!   a heap pop, `len` the heap's own, and peeking is read-only. The
//!   protocol code retires a timer by *stamp* (the handler compares a
//!   sequence number or epoch carried in the event and ignores a stale
//!   one — DESIGN.md §13), so the queue keeps no liveness set beside
//!   the heap. [`EventQueue::cancel`] removes its entry eagerly in
//!   O(live); no workload calls it.
//! * **Zero-alloc steady state** — the heap is reserved for
//!   [`PREALLOC`] entries at construction, so no run in the repo grows
//!   it on the record path.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Handle identifying one scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

/// Heap capacity reserved at construction. Every workload in the repo
/// stores fewer than 150 entries at its high-water, so the run phase
/// never grows the heap (the telemetry-overhead guard counts the whole
/// simulator's allocations per packet).
const PREALLOC: usize = 256;

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// `(at, seq)` as one integer — earliest time first, then FIFO
    /// within a timestamp — so a sift step is one branch-free compare.
    fn key(&self) -> u128 {
        (u128::from(self.at.0) << 64) | u128::from(self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        self.key().cmp(&other.key())
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
    /// Break timestamp ties as a comparator on the time alone would:
    /// a same-instant event scheduled later can pop first (the
    /// FIFO-tie-break bug the sequence number exists to prevent).
    TimeOnlyTieBreak,
}

/// A future-event list with deterministic FIFO tie-breaking,
/// implemented as a binary heap.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Min-heap on `(at, seq)`; every stored entry is pending.
    heap: BinaryHeap<Reverse<Entry<E>>>,
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
            heap: BinaryHeap::with_capacity(PREALLOC),
            next_seq: 0,
            mutation: QueueMutation::None,
        }
    }

    /// Arm a seeded defect. Test-only: exists so the differential
    /// harness can prove it bites on a broken queue.
    #[doc(hidden)]
    pub fn set_mutation_for_tests(&mut self, m: QueueMutation) {
        self.mutation = m;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no pending events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        let seq = self.reserve_seq();
        self.schedule_reserved(at, seq, event)
    }

    /// Take the next sequence number without storing anything: the
    /// tie-break position an event scheduled *now* would get. Every
    /// later [`EventQueue::schedule`] sorts after it within a
    /// timestamp, whether or not the number is ever used.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at `at` under a number taken earlier with
    /// [`EventQueue::reserve_seq`]: it pops exactly where a
    /// [`EventQueue::schedule`] made at the time of the reservation
    /// would. `seq` must come from `reserve_seq` and be used at most
    /// once — two stored entries with one key have no defined order.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) -> EventId {
        debug_assert!(seq < self.next_seq, "sequence number {seq} was never reserved");
        self.heap.push(Reverse(Entry { at, seq, event }));
        EventId(seq)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event
    /// was still pending (i.e. not yet fired or cancelled).
    ///
    /// Eager and O(live): the entry is removed and the heap rebuilt.
    /// Pop order is unaffected — it is a function of the surviving
    /// keys alone. Nothing in the simulator calls this (timers are
    /// retired by stamp); it exists for the benchmark's
    /// `sim.queue_cancel_ns` leg and goes with it.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let before = self.heap.len();
        self.heap.retain(|Reverse(e)| e.seq != id.0);
        self.heap.len() != before
    }

    /// Time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Remove the top entry.
    fn take_top(&mut self) -> Option<Entry<E>> {
        let Reverse(e) = self.heap.pop()?;
        if self.mutation == QueueMutation::TimeOnlyTieBreak
            && self
                .heap
                .peek()
                .is_some_and(|Reverse(next)| next.at == e.at)
        {
            // Seeded defect: a same-instant rival surfaces first.
            let Reverse(rival) = self.heap.pop()?;
            self.heap.push(Reverse(e));
            return Some(rival);
        }
        Some(e)
    }

    /// Remove and return the next event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.take_top().map(|e| (e.at, e.event))
    }

    /// Pop every event at the earliest pending instant, provided
    /// that instant is at or before `deadline`; append them to `out`
    /// in sequence order, each with its sequence number (they share
    /// the timestamp), and return the instant. Equivalent to popping
    /// one at a time while `peek_time()` stays equal — the per-instant
    /// batch dispatch `Sim::pop_batch` is built on — with one deadline
    /// check per *instant* instead of one per *event*.
    pub fn pop_instant_into(
        &mut self,
        deadline: SimTime,
        out: &mut Vec<(u64, E)>,
    ) -> Option<SimTime> {
        let at = self.peek_time().filter(|&at| at <= deadline)?;
        while self.heap.peek().is_some_and(|Reverse(top)| top.at == at) {
            let Some(e) = self.take_top() else { break };
            out.push((e.seq, e.event));
        }
        Some(at)
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
    fn cancel_heavy_churn_keeps_heap_bounded() {
        // A cancel/reschedule loop (timer churn) stores exactly the
        // live events: a cancelled entry leaves the heap at once.
        let mut q = EventQueue::new();
        let mut live: Vec<EventId> = (0..32)
            .map(|i| q.schedule(SimTime(1_000 + i), i))
            .collect();
        // Miri interprets ~100x slower; a few hundred rounds still
        // cancel every slot several times over.
        let rounds: u64 = if cfg!(miri) { 256 } else { 10_000 };
        for round in 0..rounds {
            let slot = (round % 32) as usize;
            assert!(q.cancel(live[slot]));
            live[slot] = q.schedule(SimTime(2_000 + round), round);
            assert_eq!(q.len(), 32);
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
    fn cancelling_buried_entries_preserves_pop_order() {
        let mut q = EventQueue::new();
        let mut keep = Vec::new();
        for i in 0..512u64 {
            let id = q.schedule(SimTime(10_000 - i * 10), i);
            if i % 7 == 0 {
                keep.push((SimTime(10_000 - i * 10), i));
            } else {
                q.cancel(id); // rebuilds the heap around the survivors
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
    fn reserved_number_keeps_its_place_however_late_it_is_pushed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), "a");
        let held = q.reserve_seq();
        let never = q.reserve_seq();
        q.schedule(SimTime(10), "c");
        assert_eq!(q.len(), 2, "a reservation stores nothing");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        q.schedule(SimTime(10), "d");
        q.schedule_reserved(SimTime(10), held, "b");
        // `never` is skipped without leaving a gap anyone can see.
        assert!(never > held);
        for expected in ["b", "c", "d"] {
            assert_eq!(q.pop(), Some((SimTime(10), expected)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_events_pop_in_global_order() {
        // Minutes-out timers and a "never" timer at SimTime::MAX share
        // the heap with near events and still pop in global order.
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
    fn ties_stay_fifo_across_interleaved_pops() {
        // Events at one instant scheduled before and after pops moved
        // the heap around: schedule order must survive, at SimTime::MAX
        // as anywhere else.
        for at in [SimTime(100_000), SimTime::MAX] {
            let mut q = EventQueue::new();
            q.schedule(at, 1);
            q.schedule(SimTime(10), 0);
            assert_eq!(q.pop(), Some((SimTime(10), 0)));
            q.schedule(at, 2);
            assert_eq!(q.pop(), Some((at, 1)));
            q.schedule(at, 3);
            assert_eq!(q.pop(), Some((at, 2)));
            assert_eq!(q.pop(), Some((at, 3)));
            assert_eq!(q.pop(), None);
        }
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
