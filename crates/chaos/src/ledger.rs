//! External delivery ledger.
//!
//! The loss/duplication invariants are checked from outside the stack:
//! every message the engine injects carries a unique tag, and the
//! ledger tracks each tag from send to drain. A tag is *doomed* when a
//! scheduled crash takes out one of its endpoints before delivery —
//! the paper's guarantee does not cover traffic to or from a dead node
//! — and doomed tags are allowed (but not required) to go missing.
//! Everything else must arrive exactly once, at the right node.
//!
//! Tags are issued in sequence from 0, so the ledger keeps no tree:
//!
//! * the tags still owed delivery sit in a window over `base..sent()`,
//!   one slot per tag in tag order, and a settled tag (delivered or
//!   doomed) leaves the window once every older tag has — the window
//!   is as long as the oldest owed tag is old, not as the run;
//! * one bit per tag sent records whether it has surfaced anywhere,
//!   which is all a later copy needs to be judged a duplicate. A tag
//!   below `sent()` that has not surfaced is owed or doomed, and either
//!   way its first arrival at its destination counts as delivered, so
//!   a doomed tag needs no record of its own.
//!
//! A tag at or above `sent()` was never sent: it is misdelivered (or,
//! a second time, duplicated) and remembered in a side set that only
//! such tags enter, never in a structure sized from the received
//! number. `send` folds the side set into the bitmap as it reaches one.

use ampnet_core::SimTime;
use std::collections::{BTreeSet, VecDeque};

#[cfg(test)]
mod reference;

const MAGIC: [u8; 4] = *b"CHS!";

/// Encode a tagged chaos payload.
pub(crate) fn encode_payload(id: u64, src: u8, dst: u8) -> Vec<u8> {
    let mut p = Vec::with_capacity(14);
    p.extend_from_slice(&MAGIC);
    p.extend_from_slice(&id.to_le_bytes());
    p.push(src);
    p.push(dst);
    p
}

/// Decode a tagged chaos payload, if it is one.
pub(crate) fn decode_payload(p: &[u8]) -> Option<(u64, u8, u8)> {
    let rec: &[u8; 14] = p.try_into().ok()?;
    let [m0, m1, m2, m3, id @ .., src, dst] = *rec;
    if [m0, m1, m2, m3] != MAGIC {
        return None;
    }
    Some((u64::from_le_bytes(id), src, dst))
}

#[derive(Debug, Clone, Copy)]
struct SentMsg {
    src: u8,
    dst: u8,
    sent_at: SimTime,
}

/// Ledger of injected messages and their fates.
#[derive(Debug, Default)]
pub struct Ledger {
    next_id: u64,
    /// The tag `owed[0]` describes.
    base: u64,
    /// Tags `base..next_id`: `Some` while owed delivery, `None` once
    /// settled. The front slot is always `Some`.
    owed: VecDeque<Option<SentMsg>>,
    /// `Some` slots in `owed`.
    outstanding: usize,
    /// Bit `id` set once tag `id` (below `next_id`) has surfaced.
    seen: Vec<u64>,
    /// Never-sent tags (at or above `next_id`) that have surfaced.
    foreign_seen: BTreeSet<u64>,
    /// Tags delivered exactly once to the right node.
    pub delivered: u64,
    /// Tags excused by an endpoint crash (delivery optional).
    pub doomed_total: u64,
    /// Tags delivered more than once (replay dedup failure).
    pub duplicates: Vec<u64>,
    /// Tags that surfaced at a node other than their destination.
    pub wrong_node: Vec<u64>,
}

impl Ledger {
    /// Record a send; returns the tagged payload to inject. Public so
    /// external drivers (the `ampnet-load` workload engine) can put
    /// their own traffic under the same exactly-once accounting the
    /// chaos invariants check.
    pub fn send(&mut self, src: u8, dst: u8, now: SimTime) -> Vec<u8> {
        let id = self.next_id;
        self.next_id += 1;
        self.owed.push_back(Some(SentMsg { src, dst, sent_at: now }));
        self.outstanding += 1;
        if id.is_multiple_of(64) {
            self.seen.push(0);
        }
        // A forged copy of this tag surfaced before it was sent.
        if self.foreign_seen.first() == Some(&id) {
            self.foreign_seen.pop_first();
            self.mark_seen(id);
        }
        encode_payload(id, src, dst)
    }

    /// Record a drained message observed at `node`. Payloads that are
    /// not chaos-tagged (no magic prefix, or trailing application
    /// bytes) are ignored, so callers may feed every drained datagram.
    pub fn drained(&mut self, node: u8, payload: &[u8]) {
        let Some((id, _src, dst)) = decode_payload(payload) else {
            return; // not chaos traffic (collectives, raw cells, apps)
        };
        if id >= self.next_id {
            // A tag we never sent: count as wrong-node class.
            if self.foreign_seen.insert(id) {
                self.wrong_node.push(id);
            } else {
                self.duplicates.push(id);
            }
            return;
        }
        if self.mark_seen(id) {
            self.duplicates.push(id);
            return;
        }
        if dst != node {
            self.wrong_node.push(id);
            return;
        }
        // Owed or doomed: either way delivered.
        self.delivered += 1;
        if let Some(slot) = id.checked_sub(self.base).and_then(|i| self.owed.get_mut(i as usize)) {
            if slot.take().is_some() {
                self.outstanding -= 1;
                self.pop_settled();
            }
        }
    }

    /// Excuse all pending messages touching `node` (it crashed).
    pub fn doom_endpoint(&mut self, node: u8) {
        for slot in &mut self.owed {
            if slot.take_if(|m| m.src == node || m.dst == node).is_some() {
                self.outstanding -= 1;
                self.doomed_total += 1;
            }
        }
        self.pop_settled();
    }

    /// Tags sent so far.
    pub fn sent(&self) -> u64 {
        self.next_id
    }

    /// Tags still awaiting mandatory delivery.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Oldest outstanding tags, for diagnostics.
    pub fn outstanding_sample(&self, n: usize) -> Vec<(u64, u8, u8, SimTime)> {
        (self.base..)
            .zip(&self.owed)
            .filter_map(|(id, m)| m.map(|m| (id, m.src, m.dst, m.sent_at)))
            .take(n)
            .collect()
    }

    /// Set tag `id`'s seen bit (`id` below `next_id`); whether it was
    /// already set.
    fn mark_seen(&mut self, id: u64) -> bool {
        let (word, bit) = (&mut self.seen[(id / 64) as usize], 1u64 << (id % 64));
        let was = *word & bit != 0;
        *word |= bit;
        was
    }

    /// Drop the settled prefix of the owed window.
    fn pop_settled(&mut self) {
        while let Some(None) = self.owed.front() {
            self.owed.pop_front();
            self.base += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::TreeLedger;
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_payload() {
        let p = encode_payload(42, 3, 5);
        assert_eq!(decode_payload(&p), Some((42, 3, 5)));
        assert_eq!(decode_payload(b"hello, not chaos"), None);
        assert_eq!(decode_payload(&p[..10]), None);
    }

    #[test]
    fn exactly_once_accounting() {
        let mut l = Ledger::default();
        let p = l.send(0, 2, SimTime::ZERO);
        assert_eq!(l.outstanding(), 1);
        l.drained(2, &p);
        assert_eq!(l.delivered, 1);
        assert_eq!(l.outstanding(), 0);
        l.drained(2, &p);
        assert_eq!(l.duplicates, vec![0]);
    }

    #[test]
    fn wrong_node_flagged() {
        let mut l = Ledger::default();
        let p = l.send(0, 2, SimTime::ZERO);
        l.drained(3, &p);
        assert_eq!(l.wrong_node, vec![0]);
        assert_eq!(l.delivered, 0);
    }

    #[test]
    fn doomed_messages_are_excused_but_may_arrive() {
        let mut l = Ledger::default();
        let p1 = l.send(0, 7, SimTime::ZERO);
        let _p2 = l.send(7, 1, SimTime::ZERO);
        l.doom_endpoint(7);
        assert_eq!(l.outstanding(), 0);
        assert_eq!(l.doomed_total, 2);
        // The in-flight one arrives anyway: fine, counted delivered.
        l.drained(7, &p1);
        assert_eq!(l.delivered, 1);
        assert!(l.duplicates.is_empty());
    }

    #[test]
    fn a_forged_tag_is_misdelivered_then_a_duplicate_once_sent() {
        let mut l = Ledger::default();
        let forged = encode_payload(u64::MAX, 0, 1);
        l.drained(1, &forged);
        l.drained(1, &forged);
        assert_eq!((l.wrong_node.clone(), l.duplicates.clone()), (vec![u64::MAX], vec![u64::MAX]));
        assert!(l.seen.is_empty(), "no bitmap sized from a received tag");
        let early = encode_payload(1, 0, 1);
        l.drained(1, &early);
        l.send(0, 1, SimTime::ZERO);
        let p = l.send(0, 1, SimTime::ZERO);
        l.drained(1, &p);
        assert_eq!(l.duplicates, vec![u64::MAX, 1], "tag 1 surfaced before it was sent");
        assert_eq!((l.delivered, l.outstanding()), (0, 2));
    }

    /// A million tags, sent and drained in order 32 behind, one in a
    /// thousand doomed first: the owed window never holds more than
    /// the tags in flight, and the bitmap stays within 2 bits a tag.
    #[test]
    fn memory_is_the_window_plus_two_bits_per_tag() {
        const TAGS: u64 = 1_000_000;
        const IN_FLIGHT: usize = 32;
        let mut l = Ledger::default();
        let mut flight = VecDeque::new();
        for id in 0..TAGS {
            let doomed = id % 1000 == 0;
            let p = l.send(0, if doomed { 7 } else { 1 }, SimTime(id));
            if doomed {
                l.doom_endpoint(7);
            } else {
                flight.push_back(p);
            }
            if flight.len() > IN_FLIGHT {
                l.drained(1, &flight.pop_front().unwrap());
            }
            assert!(l.owed.len() <= IN_FLIGHT + 1, "window {} at tag {id}", l.owed.len());
        }
        for p in flight {
            l.drained(1, &p);
        }
        assert_eq!((l.outstanding(), l.owed.len()), (0, 0));
        assert_eq!((l.delivered, l.doomed_total), (TAGS - TAGS / 1000, TAGS / 1000));
        assert!(l.duplicates.is_empty() && l.wrong_node.is_empty());
        let bits = l.seen.capacity() as u64 * 64;
        assert!(bits <= 2 * TAGS, "{bits} bits for {TAGS} tags");
    }

    /// One step of a ledger's life. Indices pick among the tags sent
    /// so far; nodes come from a small range so crashes hit traffic.
    #[derive(Debug, Clone)]
    enum Op {
        Send { src: u8, dst: u8 },
        /// A sent tag at its destination, `times` times.
        Right { pick: usize, times: u8 },
        /// A sent tag at a node that is not its destination.
        Wrong { pick: usize, shift: u8 },
        /// A tag `ahead` past the last one sent, at `node`.
        Forged { ahead: u64, dst: u8, node: u8 },
        /// A datagram that is not a chaos tag.
        Foreign { node: u8, bytes: Vec<u8> },
        Doom { node: u8 },
    }

    const NODES: u8 = 5;

    fn op() -> impl Strategy<Value = Op> {
        let node = || 0..NODES;
        prop_oneof![
            (node(), node()).prop_map(|(src, dst)| Op::Send { src, dst }),
            (node(), node()).prop_map(|(src, dst)| Op::Send { src, dst }),
            (any::<usize>(), 1u8..3).prop_map(|(pick, times)| Op::Right { pick, times }),
            (any::<usize>(), 1..NODES).prop_map(|(pick, shift)| Op::Wrong { pick, shift }),
            (0u64..6, node(), node()).prop_map(|(ahead, dst, node)| Op::Forged { ahead, dst, node }),
            (node(), prop::collection::vec(any::<u8>(), 0..20))
                .prop_map(|(node, bytes)| Op::Foreign { node, bytes }),
            node().prop_map(|node| Op::Doom { node }),
        ]
    }

    fn assert_agree(dense: &Ledger, tree: &TreeLedger, step: usize) {
        assert_eq!(dense.delivered, tree.delivered, "delivered, step {step}");
        assert_eq!(dense.doomed_total, tree.doomed_total, "doomed_total, step {step}");
        assert_eq!(dense.duplicates, tree.duplicates, "duplicates, step {step}");
        assert_eq!(dense.wrong_node, tree.wrong_node, "wrong_node, step {step}");
        assert_eq!(dense.sent(), tree.sent(), "sent, step {step}");
        assert_eq!(dense.outstanding(), tree.outstanding(), "outstanding, step {step}");
        for n in [0, 1, 3, usize::MAX] {
            assert_eq!(
                dense.outstanding_sample(n),
                tree.outstanding_sample(n),
                "outstanding_sample({n}), step {step}"
            );
        }
    }

    proptest! {
        /// The dense ledger and the tree ledger it replaced give the
        /// same verdicts, step by step, on any sequence of sends,
        /// drains (right node, wrong node, repeated, forged, not a
        /// chaos tag) and crashes.
        #[test]
        fn dense_ledger_matches_tree_reference(ops in prop::collection::vec(op(), 0..160)) {
            let (mut dense, mut tree) = (Ledger::default(), TreeLedger::default());
            let mut sent: Vec<(Vec<u8>, u8)> = Vec::new();
            for (step, op) in ops.into_iter().enumerate() {
                let next = tree.sent();
                let mut drain = |node: u8, payload: &[u8]| {
                    dense.drained(node, payload);
                    tree.drained(node, payload);
                };
                match op {
                    Op::Send { src, dst } => {
                        let at = SimTime(step as u64);
                        let p = dense.send(src, dst, at);
                        prop_assert_eq!(&p, &tree.send(src, dst, at));
                        sent.push((p, dst));
                    }
                    Op::Right { pick, times } if !sent.is_empty() => {
                        let (p, dst) = &sent[pick % sent.len()];
                        for _ in 0..times {
                            drain(*dst, p);
                        }
                    }
                    Op::Wrong { pick, shift } if !sent.is_empty() => {
                        let (p, dst) = &sent[pick % sent.len()];
                        drain((dst + shift) % NODES, p);
                    }
                    Op::Right { .. } | Op::Wrong { .. } => {}
                    Op::Forged { ahead, dst, node } => {
                        drain(node, &encode_payload(next + ahead, 0, dst));
                    }
                    Op::Foreign { node, mut bytes } => {
                        drain(node, &bytes);
                        // A real tag with application bytes behind it.
                        if let Some((p, dst)) = sent.first() {
                            bytes.splice(0..0, p.iter().copied());
                            drain(*dst, &bytes);
                        }
                    }
                    Op::Doom { node } => {
                        dense.doom_endpoint(node);
                        tree.doom_endpoint(node);
                    }
                }
                assert_agree(&dense, &tree, step);
            }
        }
    }
}
