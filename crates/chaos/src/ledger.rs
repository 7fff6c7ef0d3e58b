//! External delivery ledger.
//!
//! The loss/duplication invariants are checked from outside the stack:
//! every message the engine injects carries a unique tag, and the
//! ledger tracks each tag from send to drain. A tag is *doomed* when a
//! scheduled crash takes out one of its endpoints before delivery —
//! the paper's guarantee does not cover traffic to or from a dead node
//! — and doomed tags are allowed (but not required) to go missing.
//! Everything else must arrive exactly once, at the right node.

use ampnet_core::SimTime;
use std::collections::{BTreeMap, BTreeSet};

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
    pending: BTreeMap<u64, SentMsg>,
    doomed: BTreeSet<u64>,
    seen: BTreeSet<u64>,
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
        self.pending.insert(id, SentMsg { src, dst, sent_at: now });
        encode_payload(id, src, dst)
    }

    /// Record a drained message observed at `node`. Payloads that are
    /// not chaos-tagged (no magic prefix, or trailing application
    /// bytes) are ignored, so callers may feed every drained datagram.
    pub fn drained(&mut self, node: u8, payload: &[u8]) {
        let Some((id, _src, dst)) = decode_payload(payload) else {
            return; // not chaos traffic (collectives, raw cells, apps)
        };
        if self.seen.contains(&id) {
            self.duplicates.push(id);
            return;
        }
        self.seen.insert(id);
        if dst != node {
            self.wrong_node.push(id);
            return;
        }
        if self.pending.remove(&id).is_some() || self.doomed.remove(&id) {
            self.delivered += 1;
        } else {
            // A tag we never sent: count as wrong-node class.
            self.wrong_node.push(id);
        }
    }

    /// Excuse all pending messages touching `node` (it crashed).
    pub fn doom_endpoint(&mut self, node: u8) {
        let ids: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, m)| m.src == node || m.dst == node)
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            self.pending.remove(&id);
            self.doomed.insert(id);
            self.doomed_total += 1;
        }
    }

    /// Tags sent so far.
    pub fn sent(&self) -> u64 {
        self.next_id
    }

    /// Tags still awaiting mandatory delivery.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Oldest outstanding tags, for diagnostics.
    pub fn outstanding_sample(&self, n: usize) -> Vec<(u64, u8, u8, SimTime)> {
        self.pending
            .iter()
            .take(n)
            .map(|(&id, m)| (id, m.src, m.dst, m.sent_at))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
