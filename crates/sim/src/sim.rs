//! The simulation executor.
//!
//! [`Sim`] owns the clock, the future-event queue and the root random
//! stream. The owner (e.g. `ampnet-core`'s `Cluster`) drives the loop:
//!
//! ```
//! use ampnet_sim::{Sim, SimTime, SimDuration};
//!
//! #[derive(Debug, Clone, Copy)]
//! enum Ev { Ping(u32) }
//!
//! let mut sim: Sim<Ev> = Sim::new(42);
//! sim.schedule_in(SimDuration::from_micros(5), Ev::Ping(1));
//! let mut seen = vec![];
//! while let Some((_seq, ev)) = sim.next_event(SimTime::MAX) {
//!     match ev { Ev::Ping(n) => seen.push((sim.now(), n)) }
//! }
//! assert_eq!(seen, vec![(SimTime(5_000), 1)]);
//! ```
//!
//! `next_event` advances `now` to the event's timestamp, so handlers
//! can schedule follow-up events relative to the current instant; the
//! first such schedule reuses the handed-out event's heap slot.

use crate::queue::{EventId, EventQueue};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Deterministic discrete-event simulator core.
#[derive(Debug)]
pub struct Sim<E> {
    queue: EventQueue<E>,
    now: SimTime,
    rng: SimRng,
    processed: u64,
}

impl<E> Sim<E> {
    /// Create a simulator whose randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Sim {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: SimRng::new(seed),
            processed: 0,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The root random stream (derive labelled sub-streams from this).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedule an event at an absolute instant. Scheduling in the past
    /// panics: that is always a model bug.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at} now={}",
            self.now
        );
        self.queue.schedule(at, event)
    }

    /// Schedule an event `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.queue.schedule(self.now + delay, event)
    }

    /// Take the sequence number a `schedule_*` call made now would
    /// stamp its event with, storing nothing. For an event whose
    /// *position* is known before its *need* is: reserve when the
    /// position is decided, and hand the number to
    /// [`Sim::schedule_reserved`] if and when something turns out to
    /// wait for the event. Every event scheduled after the reservation
    /// breaks `(time, sequence)` ties behind it either way, so a run
    /// that skips the event and a run that pushes it at once pop
    /// everything else in the same order.
    pub fn reserve_seq(&mut self) -> u64 {
        self.queue.reserve_seq()
    }

    /// Schedule `event` at `at` in the tie-break position `seq`
    /// reserved earlier. The number must come from
    /// [`Sim::reserve_seq`] and be used at most once, and `at` must not
    /// lie in the past (both checked in debug builds). Under
    /// [`Sim::next_event`] an event due *at* the current instant pops
    /// at its sequence position among that instant's remaining events,
    /// exactly where it would have popped had it been scheduled when
    /// the number was reserved.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) -> EventId {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: at={at} now={}",
            self.now
        );
        self.queue.schedule_reserved(at, seq, event)
    }

    /// Time of the next pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Hand out the next event at or before `deadline` with its
    /// sequence number, advancing the clock to its timestamp. Returns
    /// `None` when the queue is empty or the next event lies beyond the
    /// deadline (the clock then advances to the deadline itself, so
    /// repeated calls are monotonic).
    ///
    /// Events come out in `(time, sequence)` order. The event's heap
    /// entry stays in place until the handler's first schedule
    /// overwrites it ([`EventQueue::take_next`]): the pop is fused
    /// with that schedule into one sift. Both ring drivers run on this.
    pub fn next_event(&mut self, deadline: SimTime) -> Option<(u64, E)>
    where
        E: Copy,
    {
        let Some((at, seq, ev)) = self.queue.take_next(deadline) else {
            self.idle_until(deadline);
            return None;
        };
        debug_assert!(at >= self.now, "event queue yielded a past event");
        self.now = at;
        self.processed += 1;
        Some((seq, ev))
    }

    /// Drain the whole batch of events sharing the earliest pending
    /// timestamp at or before `deadline` into `out`, each with its
    /// sequence number, advancing the clock to that instant (the
    /// batch's timestamp is [`Sim::now`]). Returns how many events were
    /// drained (0 behaves exactly like [`Sim::next_event`] returning
    /// `None`).
    ///
    /// Order is identical to repeated `next_event` calls: the queue
    /// breaks timestamp ties by schedule order, and anything a handler
    /// schedules *for the current instant* gets a later sequence
    /// number, so it lands in the *next* batch — exactly where
    /// one-at-a-time popping would place it. The exception is an event
    /// scheduled under a number reserved earlier
    /// ([`Sim::schedule_reserved`]): it lands in the next batch even
    /// when its number belongs inside this one.
    ///
    /// Kept only because the frozen benchmark leg
    /// `sim.pop_batch_ns_per_event` calls it; the ring drivers use
    /// [`Sim::next_event`].
    pub fn pop_batch(&mut self, deadline: SimTime, out: &mut Vec<(u64, E)>) -> usize {
        let before = out.len();
        match self.queue.pop_instant_into(deadline, out) {
            Some(at) => {
                self.now = at;
                let n = out.len() - before;
                self.processed += n as u64;
                n
            }
            None => {
                self.idle_until(deadline);
                0
            }
        }
    }

    /// Nothing is due by `deadline`: advance the clock to it.
    fn idle_until(&mut self, deadline: SimTime) {
        if deadline > self.now && deadline != SimTime::MAX {
            self.now = deadline;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Ev {
        A,
        B,
    }

    #[test]
    fn clock_advances_with_events() {
        let mut sim: Sim<Ev> = Sim::new(1);
        sim.schedule_in(SimDuration::from_nanos(10), Ev::A);
        sim.schedule_in(SimDuration::from_nanos(20), Ev::B);
        assert_eq!(sim.next_event(SimTime::MAX), Some((0, Ev::A)));
        assert_eq!(sim.now(), SimTime(10));
        assert_eq!(sim.next_event(SimTime::MAX), Some((1, Ev::B)));
        assert_eq!(sim.now(), SimTime(20));
        assert!(sim.next_event(SimTime::MAX).is_none());
        assert_eq!(sim.processed(), 2);
    }

    #[test]
    fn deadline_stops_and_advances_clock() {
        let mut sim: Sim<Ev> = Sim::new(1);
        sim.schedule_at(SimTime(100), Ev::A);
        assert!(sim.next_event(SimTime(50)).is_none());
        assert_eq!(sim.now(), SimTime(50), "clock advances to deadline");
        assert_eq!(sim.next_event(SimTime(100)), Some((0, Ev::A)));
        assert_eq!(sim.pending(), 0, "the event in hand is not pending");
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim: Sim<Ev> = Sim::new(1);
        sim.schedule_at(SimTime(10), Ev::A);
        sim.next_event(SimTime::MAX);
        sim.schedule_at(SimTime(5), Ev::B);
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.schedule_at(SimTime(1), 0);
        let mut fired = vec![];
        while let Some((_, n)) = sim.next_event(SimTime::MAX) {
            fired.push(n);
            if n < 4 {
                sim.schedule_in(SimDuration::from_nanos(1), n + 1);
            }
        }
        assert_eq!(fired, vec![0, 1, 2, 3, 4]);
        assert_eq!(sim.now(), SimTime(5));
    }

    #[test]
    fn next_event_and_pop_batch_agree_on_order() {
        fn seeded(seed: u64) -> Sim<u32> {
            let mut sim: Sim<u32> = Sim::new(seed);
            for i in 0..50 {
                let d = sim.rng().below(8); // dense timestamp ties
                sim.schedule_in(SimDuration::from_nanos(d), i);
            }
            sim
        }
        // Follow-ups at this instant and later, and handlers that
        // schedule nothing, exercise both ends of the fused pop.
        fn handle(sim: &mut Sim<u32>, n: u32) {
            match n % 3 {
                0 => {
                    sim.schedule_in(SimDuration::ZERO, n + 100);
                }
                1 => {
                    sim.schedule_in(SimDuration::from_nanos(3), n + 100);
                    sim.schedule_in(SimDuration::ZERO, n + 200);
                }
                _ => {}
            }
        }
        let mut fused = seeded(9);
        let mut taken = vec![];
        while let Some((_, n)) = fused.next_event(SimTime::MAX) {
            taken.push((fused.now(), n));
            if n < 300 {
                handle(&mut fused, n);
            }
        }
        let mut batched_sim = seeded(9);
        let mut batched = vec![];
        let mut buf = Vec::new();
        while batched_sim.pop_batch(SimTime::MAX, &mut buf) > 0 {
            for (_, n) in buf.drain(..) {
                batched.push((batched_sim.now(), n));
                if n < 300 {
                    handle(&mut batched_sim, n);
                }
            }
        }
        assert_eq!(taken, batched, "same global order");
        assert_eq!(fused.processed(), batched_sim.processed());
        assert_eq!(fused.pending(), 0);
    }

    #[test]
    fn pop_batch_respects_deadline() {
        let mut sim: Sim<Ev> = Sim::new(1);
        sim.schedule_at(SimTime(100), Ev::A);
        sim.schedule_at(SimTime(100), Ev::B);
        let mut buf = Vec::new();
        assert_eq!(sim.pop_batch(SimTime(50), &mut buf), 0);
        assert_eq!(sim.now(), SimTime(50), "clock advances to deadline");
        assert_eq!(sim.pop_batch(SimTime(100), &mut buf), 2);
        assert_eq!(sim.now(), SimTime(100));
    }

    #[test]
    fn identical_seeds_identical_runs() {
        fn run(seed: u64) -> Vec<u64> {
            let mut sim: Sim<u8> = Sim::new(seed);
            let mut out = vec![];
            for _ in 0..10 {
                let d = sim.rng().below(100);
                sim.schedule_in(SimDuration::from_nanos(d), 0);
            }
            while sim.next_event(SimTime::MAX).is_some() {
                out.push(sim.now().as_nanos());
            }
            out
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
