//! The simulation executor.
//!
//! [`Sim`] owns the clock, the future-event queue and the root random
//! stream. The owner (e.g. `ampnet-core`'s `Cluster`) drives the loop:
//!
//! ```
//! use ampnet_sim::{Sim, SimTime, SimDuration};
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! let mut sim: Sim<Ev> = Sim::new(42);
//! sim.schedule_in(SimDuration::from_micros(5), Ev::Ping(1));
//! let mut seen = vec![];
//! while let Some((t, ev)) = sim.pop_next(SimTime::MAX) {
//!     match ev { Ev::Ping(n) => seen.push((t, n)) }
//! }
//! assert_eq!(seen, vec![(SimTime(5_000), 1)]);
//! ```
//!
//! `pop_next` advances `now` to the event's timestamp, so handlers can
//! schedule follow-up events relative to the current instant.

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
    /// lie in the past (both checked in debug builds). An event due
    /// *at* the current instant while that instant's batch is being
    /// handled pops in the next [`Sim::pop_batch`], after the batch —
    /// a caller that needs it inside the batch at its sequence position
    /// inserts it there itself (`ampnet-core`'s `Cluster` does).
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

    /// Pop the next event at or before `deadline`, advancing the clock
    /// to its timestamp. Returns `None` when the queue is empty or the
    /// next event lies beyond the deadline (the clock then advances to
    /// the deadline itself, so repeated calls are monotonic).
    pub fn pop_next(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.queue.peek_time().is_none_or(|t| t > deadline) {
            if deadline > self.now && deadline != SimTime::MAX {
                self.now = deadline;
            }
            return None;
        }
        let (at, ev) = self.queue.pop()?;
        debug_assert!(at >= self.now, "event queue yielded a past event");
        self.now = at;
        self.processed += 1;
        Some((at, ev))
    }

    /// Drain the whole batch of events sharing the earliest pending
    /// timestamp at or before `deadline` into `out`, each with its
    /// sequence number, advancing the clock to that instant (the
    /// batch's timestamp is [`Sim::now`]). Returns how many events were
    /// drained (0 behaves exactly like [`Sim::pop_next`] returning
    /// `None`).
    ///
    /// Order is identical to repeated `pop_next` calls: the queue
    /// breaks timestamp ties by schedule order, and anything a handler
    /// schedules *for the current instant* gets a later sequence
    /// number, so it lands in the *next* batch — exactly where
    /// one-at-a-time popping would place it. Batch dispatch is
    /// therefore bit-for-bit equivalent; what it saves is the peek,
    /// the deadline comparison and the clock update, paid once per
    /// instant instead of once per event (each event is still one
    /// heap pop). The one event a handler can owe the *current* batch
    /// is one scheduled under a reserved number
    /// ([`Sim::schedule_reserved`]); the sequence numbers in `out` are
    /// what lets its owner place it.
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
                if deadline > self.now && deadline != SimTime::MAX {
                    self.now = deadline;
                }
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        A,
        B,
    }

    #[test]
    fn clock_advances_with_events() {
        let mut sim: Sim<Ev> = Sim::new(1);
        sim.schedule_in(SimDuration::from_nanos(10), Ev::A);
        sim.schedule_in(SimDuration::from_nanos(20), Ev::B);
        let (t1, e1) = sim.pop_next(SimTime::MAX).unwrap();
        assert_eq!((t1, e1), (SimTime(10), Ev::A));
        assert_eq!(sim.now(), SimTime(10));
        let (t2, _) = sim.pop_next(SimTime::MAX).unwrap();
        assert_eq!(t2, SimTime(20));
        assert!(sim.pop_next(SimTime::MAX).is_none());
        assert_eq!(sim.processed(), 2);
    }

    #[test]
    fn deadline_stops_and_advances_clock() {
        let mut sim: Sim<Ev> = Sim::new(1);
        sim.schedule_at(SimTime(100), Ev::A);
        assert!(sim.pop_next(SimTime(50)).is_none());
        assert_eq!(sim.now(), SimTime(50), "clock advances to deadline");
        assert!(sim.pop_next(SimTime(100)).is_some());
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim: Sim<Ev> = Sim::new(1);
        sim.schedule_at(SimTime(10), Ev::A);
        sim.pop_next(SimTime::MAX);
        sim.schedule_at(SimTime(5), Ev::B);
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut sim: Sim<u32> = Sim::new(1);
        sim.schedule_at(SimTime(1), 0);
        let mut fired = vec![];
        while let Some((_, n)) = sim.pop_next(SimTime::MAX) {
            fired.push(n);
            if n < 4 {
                sim.schedule_in(SimDuration::from_nanos(1), n + 1);
            }
        }
        assert_eq!(fired, vec![0, 1, 2, 3, 4]);
        assert_eq!(sim.now(), SimTime(5));
    }

    #[test]
    fn pop_batch_matches_pop_next_order() {
        fn seeded(seed: u64) -> Sim<u32> {
            let mut sim: Sim<u32> = Sim::new(seed);
            for i in 0..50 {
                let d = sim.rng().below(8); // dense timestamp ties
                sim.schedule_in(SimDuration::from_nanos(d), i);
            }
            sim
        }
        let mut one = seeded(9);
        let mut serial = vec![];
        while let Some((t, n)) = one.pop_next(SimTime::MAX) {
            serial.push((t, n));
            if n < 60 {
                one.schedule_in(SimDuration::ZERO, n + 100); // same-instant followup
            }
        }
        let mut batched_sim = seeded(9);
        let mut batched = vec![];
        let mut buf = Vec::new();
        loop {
            buf.clear();
            if batched_sim.pop_batch(SimTime::MAX, &mut buf) == 0 {
                break;
            }
            for &(_, n) in &buf {
                batched.push((batched_sim.now(), n));
                if n < 60 {
                    batched_sim.schedule_in(SimDuration::ZERO, n + 100);
                }
            }
        }
        assert_eq!(serial, batched, "batch dispatch preserves global order");
        assert_eq!(one.processed(), batched_sim.processed());
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
            while let Some((t, _)) = sim.pop_next(SimTime::MAX) {
                out.push(t.as_nanos());
            }
            out
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
