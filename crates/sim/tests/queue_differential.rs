//! Differential harness: the shipping [`EventQueue`] against a
//! trivially-correct model kept in this file.
//!
//! The model is a `BTreeMap` keyed on `(time, schedule index)` — no
//! heap, so its `(time, sequence)` ordering is correct by inspection
//! and it is the trusted side. Cancellation is eager on both sides. A
//! reservation takes an index and stores nothing; scheduling under it
//! later inserts at `(time, that index)` — the same map, so "pops
//! where an eager schedule would have" is again true by inspection.
//! Every test drives both with the same operation sequence and demands
//! identical observable behavior: pop results, peek times, cancel
//! return values, live counts. The property sweeps
//! cover randomized push/cancel/pop interleavings, same-instant
//! bursts, far-future times (minutes out, and the `SimTime::MAX`
//! "never" sentinel), cancel-heavy churn, reserved sequence numbers
//! used late or never, and the batch pop.
//!
//! The final tests arm the seeded [`QueueMutation`] defect and assert
//! the harness *detects* it — a differential suite that cannot fail on
//! a broken queue proves nothing.

// Case-count-heavy property sweeps are a poor fit for Miri's
// interpreter; everything here is safe Rust anyway.
#![cfg(not(miri))]

use ampnet_sim::{EventId, EventQueue, QueueMutation, Sim, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Far-future scale: `2^36` ns ≈ 69 s, two orders of magnitude past
/// any timer the stack arms.
const FAR: u64 = 1 << 36;

/// The reference queue. Sequence numbers are handed out 0, 1, 2, … in
/// call order (a schedule or a reservation takes one); that index is
/// the FIFO tie-break, the payload and the cancel handle.
#[derive(Default)]
struct Model {
    /// Live events only: `(time, index) → payload`.
    live: BTreeMap<(SimTime, usize), u64>,
    /// By index: the time of every event ever stored, `None` for a
    /// reservation nothing has been scheduled under.
    when: Vec<Option<SimTime>>,
}

impl Model {
    fn schedule(&mut self, at: SimTime) -> usize {
        let index = self.reserve();
        self.schedule_reserved(index, at);
        index
    }

    fn reserve(&mut self) -> usize {
        self.when.push(None);
        self.when.len() - 1
    }

    fn schedule_reserved(&mut self, index: usize, at: SimTime) {
        self.live.insert((at, index), index as u64);
        self.when[index] = Some(at);
    }

    fn cancel(&mut self, index: usize) -> bool {
        self.when[index].is_some_and(|at| self.live.remove(&(at, index)).is_some())
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.live.first_key_value().map(|(&(at, _), _)| at)
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.live
            .pop_first()
            .map(|((at, _), payload)| (at, payload))
    }

    /// The run of single pops sharing the front instant `at`, each as
    /// `(sequence number, payload)` — what the batch pop yields.
    fn pop_instant(&mut self, at: SimTime) -> Vec<(u64, u64)> {
        let mut run = Vec::new();
        while self.peek_time() == Some(at) {
            run.extend(self.live.pop_first().map(|((_, index), payload)| (index as u64, payload)));
        }
        run
    }

    fn len(&self) -> usize {
        self.live.len()
    }
}

/// One scripted operation applied to both queues.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at an absolute time.
    Schedule(u64),
    /// Take a sequence number and store nothing.
    Reserve,
    /// Schedule at an absolute time under the `i % unused`-th
    /// reservation still unused.
    ScheduleReserved(usize, u64),
    /// Cancel the event stored under sequence number `i % minted`.
    Cancel(usize),
    /// Pop one event.
    Pop,
    /// Peek the next event time.
    Peek,
}

/// The queue under test beside the model, fed the same storing ops.
#[derive(Default)]
struct Pair {
    queue: EventQueue<u64>,
    model: Model,
    /// By sequence number: the queue's handle, `None` while the number
    /// is only reserved.
    ids: Vec<Option<EventId>>,
    /// Reservations nothing has been scheduled under yet.
    unused: Vec<u64>,
}

impl Pair {
    /// Apply a schedule / reserve / cancel op to both sides; `Err` on
    /// the first observable difference. Pops and peeks are the
    /// caller's (the two sweeps observe them differently).
    fn store(&mut self, op: Op) -> Result<(), String> {
        match op {
            Op::Schedule(at) => {
                let index = self.model.schedule(SimTime(at));
                let id = self.queue.schedule(SimTime(at), index as u64);
                if self.ids.iter().flatten().any(|&earlier| earlier >= id) {
                    return Err(format!("id {id:?} not after every earlier id"));
                }
                self.ids.push(Some(id));
            }
            Op::Reserve => {
                let seq = self.queue.reserve_seq();
                if seq != self.model.reserve() as u64 {
                    return Err(format!("reserved {seq}, model is at {}", self.ids.len()));
                }
                self.ids.push(None);
                self.unused.push(seq);
            }
            Op::ScheduleReserved(i, at) => {
                if self.unused.is_empty() {
                    return Ok(());
                }
                let seq = self.unused.swap_remove(i % self.unused.len());
                self.model.schedule_reserved(seq as usize, SimTime(at));
                self.ids[seq as usize] = Some(self.queue.schedule_reserved(SimTime(at), seq, seq));
            }
            Op::Cancel(i) => {
                if self.ids.is_empty() {
                    return Ok(());
                }
                let index = i % self.ids.len();
                // A number that is only reserved has no handle and no
                // entry: nothing to cancel on either side.
                let q = self.ids[index].is_some_and(|id| self.queue.cancel(id));
                let m = self.model.cancel(index);
                if q != m {
                    return Err(format!("cancel(#{index}) {q} vs {m}"));
                }
            }
            Op::Pop | Op::Peek => {}
        }
        Ok(())
    }
}

/// Drive queue and model through `ops`, asserting equal observables at
/// every step. Returns the popped `(time, payload)` sequence.
fn run_differential(ops: &[Op]) -> Vec<(SimTime, u64)> {
    run_with_mutation(ops, QueueMutation::None).expect("model divergence")
}

/// Like [`run_differential`], but with a seeded defect armed on the
/// queue. Returns `Err(step)` at the first divergence instead of
/// panicking, so mutation tests can assert a defect *is* detected.
fn run_with_mutation(
    ops: &[Op],
    mutation: QueueMutation,
) -> Result<Vec<(SimTime, u64)>, String> {
    let mut pair = Pair::default();
    pair.queue.set_mutation_for_tests(mutation);
    let mut popped = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        pair.store(*op).map_err(|e| format!("step {step}: {e}"))?;
        let Pair { queue, model, .. } = &mut pair;
        match *op {
            Op::Pop => {
                let q = queue.pop();
                let m = model.pop();
                if q != m {
                    return Err(format!("step {step}: pop {q:?} vs {m:?}"));
                }
                popped.extend(q);
            }
            Op::Peek => {
                let q = queue.peek_time();
                let m = model.peek_time();
                if q != m {
                    return Err(format!("step {step}: peek {q:?} vs {m:?}"));
                }
            }
            _ => {}
        }
        if queue.len() != model.len() {
            return Err(format!(
                "step {step}: len {} vs {}",
                queue.len(),
                model.len()
            ));
        }
    }
    let Pair { mut queue, mut model, .. } = pair;
    // Drain both to the end — any latent misordering must surface.
    loop {
        let q = queue.pop();
        let m = model.pop();
        if q != m {
            return Err(format!("drain: pop {q:?} vs {m:?}"));
        }
        match q {
            Some(p) => popped.push(p),
            None => break,
        }
    }
    Ok(popped)
}

/// Strategy for one operation. Times mix three scales — frame times,
/// protocol timers, minutes-out timers — plus the `SimTime::MAX`
/// sentinel, so the heap holds keys of very different magnitude.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..5_000).prop_map(Op::Schedule),
        (0u64..50_000_000).prop_map(Op::Schedule),
        (FAR - 1_000..FAR + 1_000_000).prop_map(Op::Schedule),
        Just(Op::Schedule(u64::MAX)),
        Just(Op::Reserve),
        ((0usize..64), (0u64..5_000)).prop_map(|(i, at)| Op::ScheduleReserved(i, at)),
        ((0usize..64), (0u64..50_000_000)).prop_map(|(i, at)| Op::ScheduleReserved(i, at)),
        (0usize..4096).prop_map(Op::Cancel),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Peek),
    ]
}

proptest! {
    /// Randomized interleavings: the queue is observationally
    /// equivalent to the model. (Pops need not be globally sorted —
    /// the raw queue permits scheduling before the last popped
    /// instant; `Sim::schedule_at` enforces monotonicity a layer up.)
    #[test]
    fn queue_matches_model(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        run_differential(&ops);
    }

    /// Same-instant bursts: many events at few distinct times, so long
    /// runs of equal timestamps must come out in FIFO order.
    #[test]
    fn same_instant_bursts_stay_fifo(
        times in proptest::collection::vec((0u64..8).prop_map(|t| t * 1_000), 2..150),
        pops in 0usize..64,
    ) {
        let mut ops: Vec<Op> = times.iter().map(|&t| Op::Schedule(t)).collect();
        for _ in 0..pops {
            ops.push(Op::Pop);
        }
        let popped = run_differential(&ops);
        // FIFO within a timestamp: payloads (schedule order) ascend.
        for w in popped.windows(2) {
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO violated: {w:?}");
            }
        }
    }

    /// Cancel-heavy churn: a standing population whose members are
    /// cancelled and rescheduled keeps queue and model in lockstep
    /// through every heap rebuild.
    #[test]
    fn cancel_heavy_churn_matches(
        churn in proptest::collection::vec(
            ((0u64..100_000), (0usize..4096)), 64..300
        ),
    ) {
        let mut ops = Vec::new();
        // Standing population, then cancel/reschedule churn with
        // occasional pops.
        for i in 0..48u64 {
            ops.push(Op::Schedule(1_000 + i));
        }
        for (k, &(at, victim)) in churn.iter().enumerate() {
            ops.push(Op::Cancel(victim));
            ops.push(Op::Schedule(at));
            if k % 9 == 0 {
                ops.push(Op::Pop);
            }
        }
        run_differential(&ops);
    }

    /// `pop_instant_into` — the batch pop `Sim::pop_batch` rides on —
    /// equals popping the model one event at a time while its peek
    /// time stays at the same instant, under cancels, far-future keys
    /// and deadline cutoffs alike.
    #[test]
    fn batch_pop_matches_model(
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        let mut pair = Pair::default();
        let mut buf: Vec<(u64, u64)> = Vec::new();
        for op in &ops {
            prop_assert_eq!(pair.store(*op), Ok(()));
            let Pair { queue, model, .. } = &mut pair;
            match *op {
                Op::Schedule(_) | Op::Reserve | Op::ScheduleReserved(..) | Op::Cancel(_) => {}
                Op::Pop | Op::Peek => {
                    // A deadline before the front instant must leave
                    // the queue untouched and return nothing...
                    if let Some(SimTime(t)) = model.peek_time() {
                        if t > 0 {
                            prop_assert_eq!(
                                queue.pop_instant_into(SimTime(t - 1), &mut buf),
                                None
                            );
                            prop_assert!(buf.is_empty());
                        }
                    }
                    // ...then an open deadline drains exactly the run
                    // of model pops sharing the front instant.
                    let got = queue.pop_instant_into(SimTime::MAX, &mut buf);
                    prop_assert_eq!(got, model.peek_time());
                    if let Some(at) = got {
                        prop_assert_eq!(&buf, &model.pop_instant(at));
                    }
                    prop_assert_eq!(queue.len(), model.len());
                    buf.clear();
                }
            }
        }
        // Drain the remainder batch-by-batch; every instant must match.
        let Pair { mut queue, mut model, .. } = pair;
        loop {
            let got = queue.pop_instant_into(SimTime::MAX, &mut buf);
            prop_assert_eq!(got, model.peek_time());
            let Some(at) = got else { break };
            prop_assert_eq!(&buf, &model.pop_instant(at));
            buf.clear();
        }
        prop_assert!(queue.is_empty() && model.len() == 0);
    }
}

// ---- a reserved number due at the instant in hand ------------------------

/// The one event a handler can owe the batch being handled: reserved
/// earlier, found to be needed only now, and due now. Pushed onto the
/// heap it would pop in the *next* batch, after events that were
/// scheduled behind it; inserted into the batch by its sequence number
/// it is handled exactly where the eager schedule has it.
#[test]
fn batch_insertion_at_the_current_instant_pops_in_sequence_position() {
    const AT: SimTime = SimTime(10);
    // `late` marks the event that is either scheduled eagerly or only
    // reserved; handling event 0 is what reveals that it is needed.
    fn script(sim: &mut Sim<u32>, late: Option<u32>) -> Option<u64> {
        sim.schedule_at(AT, 0);
        let reserved = match late {
            Some(ev) => {
                sim.schedule_at(AT, ev);
                None
            }
            None => Some(sim.reserve_seq()),
        };
        sim.schedule_at(AT, 2);
        sim.schedule_at(AT, 3);
        reserved
    }
    /// Handle every batch front to back; `on_first` runs while event 0
    /// is in hand and may add to the rest of its batch.
    fn drain(sim: &mut Sim<u32>, mut on_first: impl FnMut(&mut Sim<u32>, &mut Vec<(u64, u32)>)) -> Vec<u32> {
        let (mut order, mut batch) = (Vec::new(), Vec::new());
        while sim.pop_batch(SimTime::MAX, &mut batch) > 0 {
            batch.reverse(); // handled from the back, so descending
            while let Some((_, ev)) = batch.pop() {
                order.push(ev);
                if ev == 0 {
                    on_first(sim, &mut batch);
                }
            }
        }
        order
    }

    let mut eager = Sim::new(1);
    script(&mut eager, Some(1));
    let reference = drain(&mut eager, |_, _| {});
    assert_eq!(reference, [0, 1, 2, 3]);

    let mut inserted = Sim::new(1);
    let seq = script(&mut inserted, None).expect("reserved");
    let order = drain(&mut inserted, |_, batch| {
        let at = batch.partition_point(|&(s, _)| s > seq);
        batch.insert(at, (seq, 1));
    });
    assert_eq!(order, reference, "inserted by sequence number");
    assert_eq!(inserted.reserve_seq(), eager.reserve_seq(), "same numbers consumed");

    let mut pushed = Sim::new(1);
    let seq = script(&mut pushed, None).expect("reserved");
    let order = drain(&mut pushed, |sim, _| {
        sim.schedule_reserved(AT, seq, 1);
    });
    assert_eq!(order, [0, 2, 3, 1], "a heap push misses the batch in hand");
}

// ---- seeded-defect detection -------------------------------------------
//
// The QueueMutation models a real implementation mistake a heap can
// make. The harness must catch it, otherwise "queue == model" is
// vacuous.

/// `TimeOnlyTieBreak` bites as soon as a same-instant run is longer
/// than the heap keeps in insertion order by accident: with the
/// sequence number out of the key, whichever entry the sift happens to
/// surface pops next.
#[test]
fn time_only_tie_break_mutation_is_detected() {
    let mut ops = vec![Op::Schedule(10); 8];
    ops.extend([Op::Pop; 8]);
    assert_eq!(
        run_differential(&ops),
        (0..8).map(|i| (SimTime(10), i)).collect::<Vec<_>>(),
        "sanity: the healthy queue pops the burst in schedule order"
    );
    let err = run_with_mutation(&ops, QueueMutation::TimeOnlyTieBreak)
        .expect_err("harness must detect the dropped FIFO tie-break");
    assert!(err.contains("pop"), "divergence should be a pop: {err}");
}

/// And the sweeps themselves must flag mutations, not just the
/// hand-built script: run the randomized differential against each
/// defect and require at least one divergence across the case budget.
#[test]
fn property_sweep_detects_every_mutation() {
    use proptest::test_runner::TestRng;
    for mutation in [QueueMutation::TimeOnlyTieBreak] {
        let mut rng = TestRng::for_test("queue_differential::sweep_mutations");
        let mut detected = false;
        'cases: for _ in 0..1_000 {
            let mut ops = Vec::new();
            for _ in 0..160 {
                let r = rng.next_u64();
                // Times are quantized to a handful of distinct instants
                // so same-instant collisions (where ordering defects
                // live) are common at every scale; pops dominate so
                // same-instant runs keep reaching the top.
                ops.push(match r % 8 {
                    0 => Op::Schedule((rng.next_u64() % 8) * 700),
                    1 => Op::Schedule((rng.next_u64() % 4) * 10_000_000),
                    2 | 3 => Op::Schedule(FAR + 5 + (rng.next_u64() % 2) * 5),
                    4 => Op::Cancel((rng.next_u64() % 64) as usize),
                    _ => Op::Pop,
                });
            }
            if run_with_mutation(&ops, mutation).is_err() {
                detected = true;
                break 'cases;
            }
        }
        assert!(detected, "sweep never caught {mutation:?}");
    }
}
