//! Differential harness: the shipping [`EventQueue`] against a
//! trivially-correct model kept in this file.
//!
//! The model is a `BTreeMap` keyed on `(time, tie class, schedule
//! index)` — no heap, so its ordering is correct by inspection and it
//! is the trusted side. Cancellation is eager on both sides. A take
//! ([`EventQueue::take_next`]) removes the model's minimum at once; the
//! queue leaves that entry on its heap, in hand, until the next
//! schedule overwrites it, so every operation that follows a take runs
//! against a heap holding one dead entry.
//! Every test drives both with the same operation sequence and demands
//! identical observable behavior: pop and take results, peek times,
//! cancel return values, live counts. The property sweeps cover
//! randomized push/cancel/pop/take interleavings over drawn tie
//! classes, same-instant bursts, far-future times (minutes out, and the
//! `SimTime::MAX` "never" sentinel), cancel-heavy churn, and the batch
//! pop.
//!
//! The final tests arm the seeded [`QueueMutation`] defects and assert
//! the harness *detects* each — a differential suite that cannot fail
//! on a broken queue proves nothing.

// Case-count-heavy property sweeps are a poor fit for Miri's
// interpreter; everything here is safe Rust anyway.
#![cfg(not(miri))]

use ampnet_sim::{EventId, EventQueue, QueueMutation, Sim, SimTime, TieClass};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Far-future scale: `2^36` ns ≈ 69 s, two orders of magnitude past
/// any timer the stack arms.
const FAR: u64 = 1 << 36;

/// The payload both sides store: its tie class and its schedule
/// index, handed out 0, 1, 2, … in call order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ev {
    class: u16,
    index: u64,
}

impl TieClass for Ev {
    fn tie_class(&self) -> u16 {
        self.class
    }
}

/// The reference queue. The schedule index is the FIFO tie-break
/// within a class, and the cancel handle.
#[derive(Default)]
struct Model {
    /// Live events only: `(time, class, index) → payload`.
    live: BTreeMap<(SimTime, u16, u64), Ev>,
    /// By index: the time and class of every event ever stored.
    when: Vec<(SimTime, u16)>,
}

impl Model {
    fn schedule(&mut self, at: SimTime, class: u16) -> Ev {
        let ev = Ev {
            class,
            index: self.when.len() as u64,
        };
        self.live.insert((at, class, ev.index), ev);
        self.when.push((at, class));
        ev
    }

    fn cancel(&mut self, index: usize) -> bool {
        let (at, class) = self.when[index];
        self.live.remove(&(at, class, index as u64)).is_some()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.live.first_key_value().map(|(&(at, ..), _)| at)
    }

    fn pop(&mut self) -> Option<(SimTime, Ev)> {
        self.live.pop_first().map(|((at, ..), ev)| (at, ev))
    }

    /// A take is a pop that also reports the tie class.
    fn take(&mut self) -> Option<(SimTime, u16, Ev)> {
        self.pop().map(|(at, ev)| (at, ev.class, ev))
    }

    /// The run of single pops sharing the front instant `at`, each as
    /// `(push number, payload)` — what the batch pop yields.
    fn pop_instant(&mut self, at: SimTime) -> Vec<(u64, Ev)> {
        let mut run = Vec::new();
        while self.peek_time() == Some(at) {
            run.extend(self.live.pop_first().map(|(_, ev)| (ev.index, ev)));
        }
        run
    }

    fn len(&self) -> usize {
        self.live.len()
    }
}

/// The largest tie class the queue's key holds.
const TOP_CLASS: u16 = (1 << 10) - 1;

/// One scripted operation applied to both queues.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at an absolute time, in a tie class.
    Schedule(u64, u16),
    /// Cancel the event stored under schedule index `i % scheduled`.
    Cancel(usize),
    /// Pop one event.
    Pop,
    /// Take one event ([`EventQueue::take_next`]): the next op runs
    /// with its entry in hand.
    Take,
    /// Peek the next event time.
    Peek,
}

/// The queue under test beside the model, fed the same storing ops.
#[derive(Default)]
struct Pair {
    queue: EventQueue<Ev>,
    model: Model,
    /// By schedule index: the queue's handle.
    ids: Vec<EventId>,
}

impl Pair {
    /// Apply a schedule / cancel op to both sides; `Err` on the first
    /// observable difference. Pops and peeks are the caller's (the two
    /// sweeps observe them differently).
    fn store(&mut self, op: Op) -> Result<(), String> {
        match op {
            Op::Schedule(at, class) => {
                let ev = self.model.schedule(SimTime(at), class);
                let id = self.queue.schedule(SimTime(at), ev);
                if self.ids.last().is_some_and(|&earlier| earlier >= id) {
                    return Err(format!("id {id:?} not after every earlier id"));
                }
                self.ids.push(id);
            }
            Op::Cancel(i) => {
                if self.ids.is_empty() {
                    return Ok(());
                }
                let index = i % self.ids.len();
                let q = self.queue.cancel(self.ids[index]);
                let m = self.model.cancel(index);
                if q != m {
                    return Err(format!("cancel(#{index}) {q} vs {m}"));
                }
            }
            Op::Pop | Op::Take | Op::Peek => {}
        }
        Ok(())
    }
}

/// Drive queue and model through `ops`, asserting equal observables at
/// every step. Returns the popped and taken `(time, payload)` sequence.
fn run_differential(ops: &[Op]) -> Vec<(SimTime, Ev)> {
    run_with_mutation(ops, QueueMutation::None).expect("model divergence")
}

/// Like [`run_differential`], but with a seeded defect armed on the
/// queue. Returns `Err(step)` at the first divergence instead of
/// panicking, so mutation tests can assert a defect *is* detected.
fn run_with_mutation(
    ops: &[Op],
    mutation: QueueMutation,
) -> Result<Vec<(SimTime, Ev)>, String> {
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
            Op::Take => {
                let q = queue.take_next(SimTime::MAX);
                let m = model.take();
                if q != m {
                    return Err(format!("step {step}: take {q:?} vs {m:?}"));
                }
                popped.extend(q.map(|(at, _, ev)| (at, ev)));
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

/// Strategy for a tie class: mostly a few low classes, so classes tie
/// too, and now and then the top of the range.
fn class_strategy() -> impl Strategy<Value = u16> {
    prop_oneof![0u16..4, 0u16..4, 0u16..4, 0u16..4, Just(TOP_CLASS)]
}

/// Strategy for one operation. Times mix three scales — frame times,
/// protocol timers, minutes-out timers — plus the `SimTime::MAX`
/// sentinel, so the heap holds keys of very different magnitude.
fn op_strategy() -> impl Strategy<Value = Op> {
    let at = |times: std::ops::Range<u64>| {
        (times, class_strategy()).prop_map(|(at, class)| Op::Schedule(at, class))
    };
    prop_oneof![
        at(0..5_000),
        at(0..5_000),
        at(0..50_000_000),
        at(FAR - 1_000..FAR + 1_000_000),
        class_strategy().prop_map(|class| Op::Schedule(u64::MAX, class)),
        (0usize..4096).prop_map(Op::Cancel),
        Just(Op::Pop),
        Just(Op::Take),
        Just(Op::Take),
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

    /// Same-instant bursts: many events at few distinct times and
    /// classes, so long runs of equal timestamps must come out by
    /// class, and FIFO within a class, popped or taken.
    #[test]
    fn same_instant_bursts_order_by_class_then_fifo(
        events in proptest::collection::vec(((0u64..8).prop_map(|t| t * 1_000), class_strategy()), 2..150),
        pops in proptest::collection::vec(any::<bool>(), 0..64),
    ) {
        let mut ops: Vec<Op> = events.iter().map(|&(t, class)| Op::Schedule(t, class)).collect();
        ops.extend(pops.iter().map(|&take| if take { Op::Take } else { Op::Pop }));
        let popped = run_differential(&ops);
        // Within a timestamp, `Ev`'s order — class, then schedule
        // index — ascends.
        for w in popped.windows(2) {
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "tie order violated: {w:?}");
            }
        }
    }

    /// Cancel-heavy churn: a standing population whose members are
    /// cancelled and rescheduled keeps queue and model in lockstep
    /// through every heap rebuild, with and without an entry in hand.
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
            ops.push(Op::Schedule(1_000 + i, (i % 3) as u16));
        }
        for (k, &(at, victim)) in churn.iter().enumerate() {
            ops.push(Op::Cancel(victim));
            ops.push(Op::Schedule(at, (k % 3) as u16));
            match k % 9 {
                0 => ops.push(Op::Pop),
                4 => ops.push(Op::Take),
                _ => {}
            }
        }
        run_differential(&ops);
    }

    /// `pop_instant_into` — the batch pop `Sim::pop_batch` rides on —
    /// equals popping the model one event at a time while its peek
    /// time stays at the same instant, under cancels, far-future keys,
    /// deadline cutoffs and an entry in hand alike; a take stops at
    /// the same deadlines.
    #[test]
    fn batch_pop_matches_model(
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        let mut pair = Pair::default();
        let mut buf: Vec<(u64, Ev)> = Vec::new();
        for op in &ops {
            prop_assert_eq!(pair.store(*op), Ok(()));
            let Pair { queue, model, .. } = &mut pair;
            match *op {
                Op::Schedule(..) | Op::Cancel(_) => {}
                Op::Take => {
                    if let Some(SimTime(t)) = model.peek_time() {
                        if t > 0 {
                            prop_assert_eq!(queue.take_next(SimTime(t - 1)), None);
                        }
                    }
                    prop_assert_eq!(queue.take_next(SimTime::MAX), model.take());
                    prop_assert_eq!(queue.len(), model.len());
                }
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

// ---- an event due at the instant in hand ---------------------------------

/// An event a handler schedules for the instant being handled, of a
/// lower class than the instant's other events. Taken one at a time
/// ([`Sim::next_event`]), it pops next whether it is the handler's
/// first schedule (written over the entry in hand) or a later one (a
/// plain push) — where it would have popped had it been scheduled with
/// the rest. Drained in same-instant batches ([`Sim::pop_batch`]), it
/// misses the batch in hand.
#[test]
fn lower_class_due_now_pops_next() {
    const AT: SimTime = SimTime(10);
    let ev = |class: u16| Ev {
        class,
        index: u64::from(class),
    };
    fn script(sim: &mut Sim<Ev>, classes: &[u16]) {
        for &class in classes {
            sim.schedule_at(AT, Ev { class, index: u64::from(class) });
        }
    }
    /// Take every event in turn, recording classes; `on_first` runs
    /// while class 0 is in hand.
    fn drain(sim: &mut Sim<Ev>, mut on_first: impl FnMut(&mut Sim<Ev>)) -> Vec<u16> {
        let mut order = Vec::new();
        while let Some((_, ev)) = sim.next_event(SimTime::MAX) {
            order.push(ev.class);
            if ev.class == 0 {
                on_first(sim);
            }
        }
        order
    }

    let mut eager = Sim::new(1);
    script(&mut eager, &[3, 1, 2, 0]);
    assert_eq!(drain(&mut eager, |_| {}), [0, 1, 2, 3]);

    let mut first = Sim::new(1);
    script(&mut first, &[3, 2, 0]);
    let order = drain(&mut first, |sim| {
        sim.schedule_at(AT, ev(1));
    });
    assert_eq!(order, [0, 1, 2, 3], "the first schedule overwrites the entry in hand");

    let mut second = Sim::new(1);
    script(&mut second, &[3, 2, 0]);
    let order = drain(&mut second, |sim| {
        sim.schedule_at(AT + ampnet_sim::SimDuration::from_nanos(5), ev(4));
        sim.schedule_at(AT, ev(1));
    });
    assert_eq!(order, [0, 1, 2, 3, 4], "a later schedule is a push");

    let mut batched = Sim::new(1);
    script(&mut batched, &[3, 2, 0]);
    let (mut order, mut batch) = (Vec::new(), Vec::new());
    while batched.pop_batch(SimTime::MAX, &mut batch) > 0 {
        for (_, e) in batch.drain(..) {
            order.push(e.class);
            if e.class == 0 {
                batched.schedule_at(AT, ev(1));
            }
        }
    }
    assert_eq!(order, [0, 2, 3, 1], "a push misses the batch in hand");
}

// ---- seeded-defect detection -------------------------------------------
//
// Each QueueMutation models a real implementation mistake a heap can
// make. The harness must catch it, otherwise "queue == model" is
// vacuous.

/// `TimeOnlyTieBreak` bites as soon as a same-instant run is longer
/// than the heap keeps in insertion order by accident: with the push
/// counter out of the key, whichever entry the sift happens to surface
/// comes out next — popped or taken.
#[test]
fn time_only_tie_break_mutation_is_detected() {
    for out in [Op::Pop, Op::Take] {
        let mut ops = vec![Op::Schedule(10, 0); 8];
        ops.extend([out; 8]);
        assert_eq!(
            run_differential(&ops),
            (0..8).map(|index| (SimTime(10), Ev { class: 0, index })).collect::<Vec<_>>(),
            "sanity: the healthy queue hands out the burst in schedule order"
        );
        let err = run_with_mutation(&ops, QueueMutation::TimeOnlyTieBreak)
            .expect_err("harness must detect the dropped FIFO tie-break");
        let what = if matches!(out, Op::Take) { "take" } else { "pop" };
        assert!(err.contains(what), "divergence should be a {what}: {err}");
    }
}

/// `ClassBlind` stores every entry under class 0: a same-instant event
/// of a lower class scheduled later comes out after the earlier one.
#[test]
fn class_blind_mutation_is_detected() {
    for out in [Op::Pop, Op::Take] {
        let ops = [Op::Schedule(10, 3), Op::Schedule(10, 1), out, out];
        assert_eq!(
            run_differential(&ops),
            [(SimTime(10), Ev { class: 1, index: 1 }), (SimTime(10), Ev { class: 3, index: 0 })],
            "sanity: the healthy queue hands out the lower class first"
        );
        let err = run_with_mutation(&ops, QueueMutation::ClassBlind)
            .expect_err("harness must detect the dropped tie class");
        assert!(err.starts_with("step 2: "), "the first {out:?}: {err}");
    }
}

/// `StaleRoot` keeps the taken entry live when the handler's schedule
/// is pushed beside it instead of written over it: the queue counts
/// one event too many at once, and hands the taken event out again.
#[test]
fn stale_root_mutation_is_detected() {
    let ops = [Op::Schedule(10, 0), Op::Schedule(20, 0), Op::Take, Op::Schedule(30, 0)];
    assert_eq!(
        run_differential(&ops).iter().map(|(at, ev)| (at.0, ev.index)).collect::<Vec<_>>(),
        [(10, 0), (20, 1), (30, 2)],
        "sanity: the healthy queue overwrites the entry in hand"
    );
    let err = run_with_mutation(&ops, QueueMutation::StaleRoot)
        .expect_err("harness must detect the revived entry");
    assert!(err.starts_with("step 3: len 3 vs 2"), "the schedule after the take: {err}");

    let mut queue = EventQueue::new();
    queue.set_mutation_for_tests(QueueMutation::StaleRoot);
    queue.schedule(SimTime(10), 1u32);
    assert_eq!(queue.take_next(SimTime::MAX), Some((SimTime(10), 0, 1)));
    queue.schedule(SimTime(30), 2);
    assert_eq!(
        queue.take_next(SimTime::MAX),
        Some((SimTime(10), 0, 1)),
        "the defect: the taken event comes out twice"
    );
}

/// And the sweeps themselves must flag mutations, not just the
/// hand-built scripts: run the randomized differential against each
/// defect, events leaving through `take_next` only, and require at
/// least one divergence across the case budget.
#[test]
fn property_sweep_detects_every_mutation() {
    use proptest::test_runner::TestRng;
    for mutation in [
        QueueMutation::TimeOnlyTieBreak,
        QueueMutation::ClassBlind,
        QueueMutation::StaleRoot,
    ] {
        let mut rng = TestRng::for_test("queue_differential::sweep_mutations");
        let mut detected = false;
        'cases: for _ in 0..1_000 {
            let mut ops = Vec::new();
            for _ in 0..160 {
                let r = rng.next_u64();
                // Times are quantized to a handful of distinct instants
                // and classes drawn from a few, so same-instant
                // collisions (where ordering defects live) are common at
                // every scale; takes dominate so same-instant runs keep
                // reaching the top, and most schedules follow a take.
                let class = (rng.next_u64() % 3) as u16;
                ops.push(match r % 8 {
                    0 => Op::Schedule((rng.next_u64() % 8) * 700, class),
                    1 => Op::Schedule((rng.next_u64() % 4) * 10_000_000, class),
                    2 | 3 => Op::Schedule(FAR + 5 + (rng.next_u64() % 2) * 5, class),
                    4 => Op::Cancel((rng.next_u64() % 64) as usize),
                    _ => Op::Take,
                });
            }
            if let Err(err) = run_with_mutation(&ops, mutation) {
                assert!(!err.starts_with("drain"), "{mutation:?} caught only by the drain: {err}");
                detected = true;
                break 'cases;
            }
        }
        assert!(detected, "sweep never caught {mutation:?}");
    }
}
