//! Differential harness: the shipping [`EventQueue`] against a
//! trivially-correct model kept in this file.
//!
//! The model is a `BTreeMap` keyed on `(time, schedule index)` — no
//! heap, so its `(time, sequence)` ordering is correct by inspection
//! and it is the trusted side. Cancellation is eager on both sides.
//! Every test drives both with the same operation sequence and demands
//! identical observable behavior: pop results, peek times, cancel
//! return values, live counts. The property sweeps
//! cover randomized push/cancel/pop interleavings, same-instant
//! bursts, far-future times (minutes out, and the `SimTime::MAX`
//! "never" sentinel), cancel-heavy churn, and the batch pop.
//!
//! The final tests arm the seeded [`QueueMutation`] defect and assert
//! the harness *detects* it — a differential suite that cannot fail on
//! a broken queue proves nothing.

// Case-count-heavy property sweeps are a poor fit for Miri's
// interpreter; everything here is safe Rust anyway.
#![cfg(not(miri))]

use ampnet_sim::{EventQueue, QueueMutation, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Far-future scale: `2^36` ns ≈ 69 s, two orders of magnitude past
/// any timer the stack arms.
const FAR: u64 = 1 << 36;

/// The reference queue. Schedules are numbered 0, 1, 2, … in call
/// order; that index is both the FIFO tie-break and the cancel handle.
#[derive(Default)]
struct Model {
    /// Live events only: `(time, schedule index) → payload`.
    live: BTreeMap<(SimTime, usize), u64>,
    /// Scheduled time of every event ever scheduled, by index.
    when: Vec<SimTime>,
}

impl Model {
    fn schedule(&mut self, at: SimTime, payload: u64) {
        self.live.insert((at, self.when.len()), payload);
        self.when.push(at);
    }

    fn cancel(&mut self, index: usize) -> bool {
        self.live.remove(&(self.when[index], index)).is_some()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.live.first_key_value().map(|(&(at, _), _)| at)
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.live
            .pop_first()
            .map(|((at, _), payload)| (at, payload))
    }

    /// The run of single pops sharing the front instant `at`.
    fn pop_instant(&mut self, at: SimTime) -> Vec<(SimTime, u64)> {
        let mut run = Vec::new();
        while self.peek_time() == Some(at) {
            run.extend(self.pop());
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
    /// Cancel the event minted by the `i % scheduled`-th schedule.
    Cancel(usize),
    /// Pop one event.
    Pop,
    /// Peek the next event time.
    Peek,
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
    let mut queue = EventQueue::new();
    queue.set_mutation_for_tests(mutation);
    let mut model = Model::default();
    let mut ids = Vec::new();
    let mut popped = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Schedule(at) => {
                let payload = ids.len() as u64;
                let id = queue.schedule(SimTime(at), payload);
                model.schedule(SimTime(at), payload);
                if ids.last().is_some_and(|&last| last >= id) {
                    return Err(format!("step {step}: id {id:?} not after {:?}", ids.last()));
                }
                ids.push(id);
            }
            Op::Cancel(i) => {
                if ids.is_empty() {
                    continue;
                }
                let index = i % ids.len();
                let q = queue.cancel(ids[index]);
                let m = model.cancel(index);
                if q != m {
                    return Err(format!("step {step}: cancel(#{index}) {q} vs {m}"));
                }
            }
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
        }
        if queue.len() != model.len() {
            return Err(format!(
                "step {step}: len {} vs {}",
                queue.len(),
                model.len()
            ));
        }
    }
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
        let mut queue = EventQueue::new();
        let mut model = Model::default();
        let mut ids = Vec::new();
        let mut buf: Vec<(SimTime, u64)> = Vec::new();
        for op in &ops {
            match *op {
                Op::Schedule(at) => {
                    let payload = ids.len() as u64;
                    ids.push(queue.schedule(SimTime(at), payload));
                    model.schedule(SimTime(at), payload);
                }
                Op::Cancel(i) => {
                    if ids.is_empty() {
                        continue;
                    }
                    let index = i % ids.len();
                    prop_assert_eq!(queue.cancel(ids[index]), model.cancel(index));
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
