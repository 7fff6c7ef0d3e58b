//! Sliding-window liveness set for monotonically issued sequence
//! numbers.
//!
//! The event queue tags every scheduled event with a strictly
//! increasing `seq` and needs a membership set for lazy cancellation:
//! insert on schedule, remove on pop/cancel, contains when a tombstone
//! may be on top of the heap. It is what lets `cancel` stay O(1) on a
//! binary heap (no search, no position index to maintain through every
//! sift) while `len()` and `cancel`'s return value stay exact. A hash
//! set answers those in ~tens of ns; but because seqs
//! are issued densely in order and almost all events die young, the
//! live ids at any instant sit inside a narrow moving window. This
//! set stores exactly that window as a bitmap — one `u64` block per
//! 64 seqs — so every operation is a shift and a mask.
//!
//! Storage is O(newest seq − oldest live seq), not O(live): a single
//! long-lived event pins the window open while later seqs are issued.
//! For event-queue workloads that span is bounded by (longest event
//! lifetime × schedule rate); fully drained windows reset to nothing.
//! Iteration order is never exposed, so swapping this in for a hash
//! set cannot perturb any observable schedule.

use std::collections::VecDeque;

/// Membership set over `u64` sequence numbers that are inserted in
/// strictly increasing order (removal and lookup are unrestricted).
#[derive(Debug, Default)]
pub(crate) struct SeqWindow {
    /// Bitmap blocks; block `k` covers seqs
    /// `[(first_block + k) * 64, (first_block + k + 1) * 64)`.
    blocks: VecDeque<u64>,
    /// Block index of `blocks[0]`.
    first_block: u64,
    /// Live-bit count.
    live: usize,
}

impl SeqWindow {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.live
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Insert `seq`. Seqs must arrive in strictly increasing order
    /// (the queue's `next_seq` counter guarantees it).
    pub(crate) fn insert(&mut self, seq: u64) {
        let block = seq >> 6;
        if self.blocks.is_empty() {
            // Fully drained: realign the window instead of paving the
            // idle gap with zero blocks.
            self.first_block = block;
            self.blocks.push_back(0);
        } else {
            debug_assert!(block >= self.first_block, "seq issued out of order");
            while self.first_block + self.blocks.len() as u64 <= block {
                self.blocks.push_back(0);
            }
        }
        let idx = (block - self.first_block) as usize;
        let mask = 1u64 << (seq & 63);
        debug_assert_eq!(self.blocks[idx] & mask, 0, "seq inserted twice");
        self.blocks[idx] |= mask;
        self.live += 1;
    }

    /// Remove `seq`; `true` if it was present. The window's front
    /// advances past blocks that drain to zero, keeping storage
    /// proportional to the live span.
    pub(crate) fn remove(&mut self, seq: u64) -> bool {
        let block = seq >> 6;
        if block < self.first_block {
            return false;
        }
        let idx = (block - self.first_block) as usize;
        if idx >= self.blocks.len() {
            return false;
        }
        let mask = 1u64 << (seq & 63);
        if self.blocks[idx] & mask == 0 {
            return false;
        }
        self.blocks[idx] &= !mask;
        self.live -= 1;
        while self.blocks.front() == Some(&0) {
            self.blocks.pop_front();
            self.first_block += 1;
        }
        true
    }

    pub(crate) fn contains(&self, seq: u64) -> bool {
        let block = seq >> 6;
        if block < self.first_block {
            return false;
        }
        let idx = (block - self.first_block) as usize;
        idx < self.blocks.len() && self.blocks[idx] & (1u64 << (seq & 63)) != 0
    }

    pub(crate) fn clear(&mut self) {
        self.blocks.clear();
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet; // lint: allow(nondeterminism): test-only membership oracle, never iterated

    #[test]
    fn basic_membership() {
        let mut s = SeqWindow::new();
        for seq in 0..200 {
            s.insert(seq);
        }
        assert_eq!(s.len(), 200);
        assert!(s.contains(0) && s.contains(199));
        assert!(!s.contains(200));
        assert!(s.remove(5));
        assert!(!s.remove(5), "double remove is false");
        assert!(!s.contains(5));
        assert_eq!(s.len(), 199);
    }

    #[test]
    fn window_advances_and_realigns() {
        let mut s = SeqWindow::new();
        for seq in 0..1000 {
            s.insert(seq);
        }
        for seq in 0..1000 {
            assert!(s.remove(seq));
        }
        assert!(s.is_empty());
        assert!(s.blocks.is_empty(), "drained window frees its blocks");
        // Re-insert far ahead: the window realigns, no gap paving.
        s.insert(1 << 40);
        assert_eq!(s.blocks.len(), 1);
        assert!(s.contains(1 << 40));
        assert!(!s.contains(999), "pre-gap seqs read as dead");
        assert!(!s.remove(999));
    }

    #[test]
    fn storage_tracks_live_span_not_history() {
        let mut s = SeqWindow::new();
        // FIFO churn: insert k+64, remove k — span stays ~64.
        for seq in 0..64u64 {
            s.insert(seq);
        }
        let top: u64 = if cfg!(miri) { 2_000 } else { 100_000 };
        for seq in 64..top {
            s.insert(seq);
            assert!(s.remove(seq - 64));
        }
        assert!(s.blocks.len() <= 3, "span-bounded: {} blocks", s.blocks.len());
        assert_eq!(s.len(), 64);
    }

    #[test]
    fn matches_hash_set_under_churn() {
        let mut s = SeqWindow::new();
        let mut oracle: HashSet<u64> = HashSet::new(); // lint: allow(nondeterminism): membership-only test oracle, never iterated
        let mut x = 0x243F_6A88_85A3_08D3u64; // deterministic LCG
        let n: u64 = if cfg!(miri) { 500 } else { 10_000 };
        for seq in 0..n {
            s.insert(seq);
            oracle.insert(seq);
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Remove a pseudorandom recent seq (maybe already gone).
            let victim = seq.saturating_sub(x >> 56);
            assert_eq!(s.remove(victim), oracle.remove(&victim), "seq {victim}");
            let probe = seq.saturating_sub((x >> 48) & 0xFF);
            assert_eq!(s.contains(probe), oracle.contains(&probe), "seq {probe}");
            assert_eq!(s.len(), oracle.len());
        }
    }
}
