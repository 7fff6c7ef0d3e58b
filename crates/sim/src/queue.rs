//! Deterministic future-event queue — one binary heap keyed on
//! `(time, tie class, push)`.
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
//! * **Order** — entries pop in `(time, class, push)` order. The class
//!   is the event's own ([`TieClass`]): a model orders its
//!   same-instant events by what they are, not by when they happened
//!   to be scheduled. The push counter breaks what the class leaves
//!   tied, first scheduled first (FIFO); an event type that keeps the
//!   default class 0 gets plain FIFO ties. Either way the schedule is
//!   a pure function of the calls made, and leaving an event out does
//!   not move any other.
//! * **One sift per event** — [`EventQueue::take_next`] hands out a
//!   copy of the top entry and leaves it in place, marked *in hand*;
//!   the next `schedule` overwrites it (`BinaryHeap::peek_mut`: one
//!   sift-down that stops early) instead of paying a pop that sifts to
//!   the bottom and a push that sifts back up. A handler that schedules
//!   nothing leaves a dead root, which the next take, `pop`, `cancel`
//!   or `pop_instant_into` removes first. The in-hand entry is not
//!   pending: `len` leaves it out and `peek_time` reads past it.
//! * **Every other stored entry is live** — the protocol code retires
//!   a timer by *stamp* (the handler compares a sequence number or
//!   epoch carried in the event and ignores a stale one — DESIGN.md
//!   §13), so the queue keeps no liveness set beside the heap.
//!   [`EventQueue::cancel`] removes its entry eagerly in O(live); no
//!   workload calls it.
//! * **Zero-alloc steady state** — the heap is reserved for
//!   [`PREALLOC`] entries at construction, so no run in the repo grows
//!   it on the record path.
//! * **Sixteen-byte events** — an entry is its 16-byte key plus the
//!   event, and every sift level moves one entry, so the event's size
//!   is what a sift pays for beyond the compare. [`EventQueue::new`]
//!   refuses an event larger than [`EVENT_BYTES`] at compile time: every
//!   stored entry is at most 32 bytes, two to a cache line. A driver
//!   keeps its events under the budget by stamping them narrowly (a
//!   `u32` node, the low 32 bits of an epoch — DESIGN.md §13).

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

/// The largest event, in bytes, a queue stores: with the 16-byte key
/// an entry is at most 32 bytes. At 24 bytes (a `usize` or `u64` field
/// beside a tag) every entry is 40, and the benchmark's `ring_saturated`
/// made 13 % fewer operations a second (EXPERIMENTS.md §B22).
pub const EVENT_BYTES: usize = 16;

/// Bits of an entry's tie word that count pushes; the 16-bit tie class
/// sits above them. A queue takes at most 2^48 (2.8·10^14) pushes,
/// which outlasts any run by orders of magnitude: at 10^8 pushes a
/// host second, 32 days.
const PUSH_BITS: u32 = 48;

/// Where an event stands among the events due at its instant: lower
/// classes pop first, and equal classes pop in push order. Every `u16`
/// is a class. The default, 0 for every event, leaves every tie to
/// push order.
pub trait TieClass {
    /// This event's same-instant class.
    fn tie_class(&self) -> u16 {
        0
    }
}

/// A plain integer payload has no class of its own: its ties pop first
/// in, first out.
impl TieClass for u32 {}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    /// `class << PUSH_BITS | push`.
    tie: u64,
    event: E,
}

impl<E> Entry<E> {
    /// `(at, class, push)` as one integer — earliest time first, then
    /// lowest class, then FIFO — so a sift step is one branch-free
    /// compare.
    fn key(&self) -> u128 {
        (u128::from(self.at.0) << 64) | u128::from(self.tie)
    }

    /// The push number, which is also the entry's [`EventId`].
    fn push(&self) -> u64 {
        self.tie & ((1 << PUSH_BITS) - 1)
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
    /// FIFO-tie-break bug the push counter exists to prevent).
    TimeOnlyTieBreak,
    /// Store every entry under class 0, as a key that dropped the tie
    /// class would: same-instant events pop in push order whatever
    /// their classes.
    ClassBlind,
    /// A schedule after [`EventQueue::take_next`] pushes instead of
    /// overwriting the entry in hand, which stays live: the taken event
    /// comes out a second time.
    StaleRoot,
}

/// A future-event list that breaks same-instant ties by class, then
/// first in first out, implemented as a binary heap.
///
/// An event is at most [`EVENT_BYTES`] (16) bytes. A larger one does
/// not compile:
///
/// ```compile_fail,E0080
/// use ampnet_sim::{EventQueue, TieClass};
///
/// struct Wide([u64; 3]); // 24 bytes
/// impl TieClass for Wide {}
///
/// let _queue = EventQueue::<Wide>::new();
/// ```
///
/// while the same event two words narrower does:
///
/// ```
/// use ampnet_sim::{EventQueue, TieClass};
///
/// struct Narrow([u64; 2]); // 16 bytes
/// impl TieClass for Narrow {}
///
/// let _queue = EventQueue::<Narrow>::new();
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Min-heap on `(at, class, push)`; every stored entry is pending
    /// except the root while `in_hand`.
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// The root was handed out by [`EventQueue::take_next`] and is dead:
    /// the next schedule overwrites it, anything else removes it.
    in_hand: bool,
    pushes: u64,
    mutation: QueueMutation,
}

impl<E: TieClass> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: TieClass> EventQueue<E> {
    /// Empty queue. Does not compile for an event larger than
    /// [`EVENT_BYTES`].
    pub fn new() -> Self {
        const {
            assert!(
                size_of::<E>() <= EVENT_BYTES,
                "an event is at most 16 bytes (ampnet_sim::EVENT_BYTES): a heap entry is \
                 its 16-byte key plus the event, and every sift level moves one entry"
            );
        }
        EventQueue {
            heap: BinaryHeap::with_capacity(PREALLOC),
            in_hand: false,
            pushes: 0,
            mutation: QueueMutation::None,
        }
    }

    /// Arm a seeded defect. Test-only: exists so the differential
    /// harness can prove it bites on a broken queue.
    #[doc(hidden)]
    pub fn set_mutation_for_tests(&mut self, m: QueueMutation) {
        self.mutation = m;
    }

    /// Number of pending events (the one in hand is not).
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.in_hand)
    }

    /// Whether no pending events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `event` to fire at absolute time `at`, behind every
    /// stored event of its instant and class.
    ///
    /// The first schedule after a [`EventQueue::take_next`] takes the
    /// in-hand entry's slot: it is written over the root and sifted
    /// down from there, one sift that stops early in place of a pop
    /// and a push.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        let push = self.pushes;
        self.pushes += 1;
        let blind = self.mutation == QueueMutation::ClassBlind;
        let class = if blind { 0 } else { event.tie_class() };
        let tie = u64::from(class) << PUSH_BITS | push;
        let entry = Reverse(Entry { at, tie, event });
        if std::mem::take(&mut self.in_hand) && self.mutation != QueueMutation::StaleRoot {
            if let Some(mut root) = self.heap.peek_mut() {
                *root = entry;
                return EventId(push);
            }
        }
        self.heap.push(entry);
        EventId(push)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event
    /// was still pending (i.e. not yet fired or cancelled).
    ///
    /// Eager and O(live): the entry is removed and the heap rebuilt.
    /// Pop order is unaffected — it is a function of the surviving
    /// keys alone. Nothing in the simulator calls this (timers are
    /// retired by stamp); it exists for the benchmark's
    /// `sim.queue_cancel_ns` leg and goes with it. The event in hand
    /// has fired: cancelling it returns `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.settle();
        let before = self.heap.len();
        self.heap.retain(|Reverse(e)| e.push() != id.0);
        self.heap.len() != before
    }

    /// Time of the next event, if any. While an event is in hand the
    /// next one is the earlier of the root's two children.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.in_hand {
            let children = self.heap.as_slice().iter().skip(1).take(2);
            children.map(|Reverse(e)| e.at).min()
        } else {
            self.heap.peek().map(|Reverse(e)| e.at)
        }
    }

    /// Remove the dead root a handler that scheduled nothing left.
    fn settle(&mut self) {
        if std::mem::take(&mut self.in_hand) {
            self.heap.pop();
        }
    }

    /// Hand out the next event at or before `deadline` — its time, tie
    /// class and a copy of the event — and leave its entry on the heap
    /// as the one in hand, for the next schedule to overwrite. Events
    /// come out in [`EventQueue::pop`]'s order: the pending set is the
    /// same either way, and keys are unique.
    pub fn take_next(&mut self, deadline: SimTime) -> Option<(SimTime, u16, E)>
    where
        E: Copy,
    {
        self.settle();
        if self.mutation == QueueMutation::TimeOnlyTieBreak {
            self.surface_rival();
        }
        let Reverse(top) = self.heap.peek().filter(|Reverse(e)| e.at <= deadline)?;
        let taken = (top.at, (top.tie >> PUSH_BITS) as u16, top.event);
        self.in_hand = true;
        Some(taken)
    }

    /// Seeded `TimeOnlyTieBreak` for [`EventQueue::take_next`]: the
    /// root trades events with a same-instant child, as if the sift had
    /// surfaced that child first. Keys stay put, so the heap is intact.
    fn surface_rival(&mut self) {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        if let [Reverse(root), rest @ ..] = entries.as_mut_slice() {
            if let Some(Reverse(rival)) = rest.iter_mut().take(2).find(|Reverse(e)| e.at == root.at) {
                std::mem::swap(&mut root.event, &mut rival.event);
            }
        }
        self.heap = BinaryHeap::from(entries);
    }

    /// Remove the top entry.
    fn take_top(&mut self) -> Option<Entry<E>> {
        self.settle();
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
    /// in pop order, each with its push number (they share the
    /// timestamp), and return the instant. Equivalent to popping
    /// one at a time while `peek_time()` stays equal — the per-instant
    /// batch dispatch `Sim::pop_batch` is built on — with one deadline
    /// check per *instant* instead of one per *event*.
    ///
    /// Kept only because the frozen benchmark leg
    /// `sim.pop_batch_ns_per_event` calls it through `Sim::pop_batch`;
    /// both ring drivers take one event at a time
    /// ([`EventQueue::take_next`]).
    pub fn pop_instant_into(
        &mut self,
        deadline: SimTime,
        out: &mut Vec<(u64, E)>,
    ) -> Option<SimTime> {
        self.settle();
        let at = self.peek_time().filter(|&at| at <= deadline)?;
        while self.heap.peek().is_some_and(|Reverse(top)| top.at == at) {
            let Some(e) = self.take_top() else { break };
            out.push((e.push(), e.event));
        }
        Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TieClass for i32 {}
    impl TieClass for u64 {}
    impl TieClass for &str {}

    #[test]
    fn an_entry_at_the_event_budget_is_32_bytes() {
        assert_eq!(
            size_of::<Reverse<Entry<[u8; EVENT_BYTES]>>>(),
            32,
            "a 16-byte key (time, tie) plus a 16-byte event: two entries to a \
             64-byte cache line, and 32 bytes moved per sift level"
        );
    }

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

    /// A payload that carries its class, for the ordering tests.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Classed(u16, char);
    impl TieClass for Classed {
        fn tie_class(&self) -> u16 {
            self.0
        }
    }

    #[test]
    fn ties_break_by_class_then_fifo() {
        let mut q = EventQueue::new();
        // Every u16 is a class of its own, up to u16::MAX.
        let (f, g) = (Classed(1024, 'f'), Classed(u16::MAX, 'g'));
        for ev in [
            g,
            Classed(3, 'd'),
            f,
            Classed(1, 'b'),
            Classed(3, 'e'),
            Classed(0, 'a'),
        ] {
            q.schedule(SimTime(10), ev);
        }
        q.schedule(SimTime(5), Classed(1023, '0'));
        assert_eq!(
            q.pop(),
            Some((SimTime(5), Classed(1023, '0'))),
            "time first"
        );
        assert_eq!(
            q.take_next(SimTime::MAX),
            Some((SimTime(10), 0, Classed(0, 'a')))
        );
        // Scheduled after the rest, but of a lower class than 'd'.
        q.schedule(SimTime(10), Classed(2, 'c'));
        for expected in ['b', 'c', 'd', 'e', 'f', 'g'] {
            assert_eq!(q.pop().map(|(at, ev)| (at, ev.1)), Some((SimTime(10), expected)));
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
    fn take_hands_out_in_pop_order_and_the_next_schedule_takes_its_slot() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(20), "b");
        q.schedule(SimTime(10), "a");
        assert_eq!(q.take_next(SimTime(9)), None, "deadline before the top");
        assert_eq!(q.take_next(SimTime(10)), Some((SimTime(10), 0, "a")));
        q.schedule(SimTime(30), "c"); // written over "a"
        assert_eq!(q.heap.len(), 2, "the overwrite stores nothing extra");
        assert_eq!(q.take_next(SimTime::MAX), Some((SimTime(20), 0, "b")));
        // Nothing scheduled after "b": the next take drops its entry.
        assert_eq!(q.take_next(SimTime::MAX), Some((SimTime(30), 0, "c")));
        assert_eq!(q.take_next(SimTime::MAX), None);
        assert!(q.heap.is_empty(), "the last dead root went too");
    }

    #[test]
    fn len_leaves_out_the_event_in_hand() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1), 1);
        q.schedule(SimTime(2), 2);
        assert!(q.take_next(SimTime::MAX).is_some());
        assert_eq!(q.len(), 1);
        assert!(q.take_next(SimTime::MAX).is_some());
        assert!(q.is_empty());
        q.schedule(SimTime(3), 3);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_time_reads_past_the_event_in_hand() {
        let mut q = EventQueue::new();
        for t in [1, 5, 3, 9, 7] {
            q.schedule(SimTime(t), t);
        }
        assert_eq!(q.take_next(SimTime::MAX), Some((SimTime(1), 0, 1)));
        assert_eq!(q.peek_time(), Some(SimTime(3)), "the earlier child");
        assert_eq!(q.take_next(SimTime::MAX), Some((SimTime(3), 0, 3)));
        assert_eq!(q.peek_time(), Some(SimTime(5)));
        let mut last = EventQueue::new();
        last.schedule(SimTime(4), 4);
        last.take_next(SimTime::MAX);
        assert_eq!(last.peek_time(), None, "nothing below the root");
    }

    #[test]
    fn pop_and_batch_pop_settle_the_dead_root() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1), 1);
        q.schedule(SimTime(2), 2);
        q.schedule(SimTime(2), 3);
        q.take_next(SimTime::MAX);
        assert_eq!(q.pop(), Some((SimTime(2), 2)));
        q.schedule(SimTime(4), 4);
        q.take_next(SimTime::MAX);
        let mut out = Vec::new();
        assert_eq!(q.pop_instant_into(SimTime::MAX, &mut out), Some(SimTime(4)));
        assert_eq!(out, [(3, 4)]);
        assert!(q.heap.is_empty());
    }

    #[test]
    fn cancelling_the_event_in_hand_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime(1), "a");
        let b = q.schedule(SimTime(2), "b");
        assert_eq!(q.take_next(SimTime::MAX), Some((SimTime(1), 0, "a")));
        assert!(!q.cancel(a), "the event in hand has fired");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
        assert!(q.is_empty() && q.heap.is_empty());
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
