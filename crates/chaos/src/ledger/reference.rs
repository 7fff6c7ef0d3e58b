//! The tree ledger the dense [`Ledger`](super::Ledger) replaced, kept
//! as the reference its differential test runs against: every tag in
//! `B-tree` maps and sets, every delivered tag remembered in `seen`.

use super::decode_payload;
use ampnet_core::SimTime;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone, Copy)]
struct SentMsg {
    src: u8,
    dst: u8,
    sent_at: SimTime,
}

/// Ledger of injected messages and their fates, in trees.
#[derive(Debug, Default)]
pub(super) struct TreeLedger {
    next_id: u64,
    pending: BTreeMap<u64, SentMsg>,
    doomed: BTreeSet<u64>,
    seen: BTreeSet<u64>,
    pub delivered: u64,
    pub doomed_total: u64,
    pub duplicates: Vec<u64>,
    pub wrong_node: Vec<u64>,
}

impl TreeLedger {
    pub fn send(&mut self, src: u8, dst: u8, now: SimTime) -> Vec<u8> {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.insert(id, SentMsg { src, dst, sent_at: now });
        super::encode_payload(id, src, dst)
    }

    pub fn drained(&mut self, node: u8, payload: &[u8]) {
        let Some((id, _src, dst)) = decode_payload(payload) else {
            return;
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
            self.wrong_node.push(id);
        }
    }

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

    pub fn sent(&self) -> u64 {
        self.next_id
    }

    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    pub fn outstanding_sample(&self, n: usize) -> Vec<(u64, u8, u8, SimTime)> {
        self.pending
            .iter()
            .take(n)
            .map(|(&id, m)| (id, m.src, m.dst, m.sent_at))
            .collect()
    }
}
