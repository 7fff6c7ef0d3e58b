//! Cluster-level collectives: the `ampnet-services::mpi` rank engines
//! riding the simulated ring.
//!
//! Collective datagrams travel on a dedicated message stream
//! ([`COLLECTIVE_STREAM`]); the dispatcher feeds them to each node's
//! rank engine automatically, so applications just call
//! [`Cluster::coll_barrier`] / [`Cluster::coll_allreduce`] /
//! [`Cluster::coll_bcast`] / [`Cluster::coll_gather`] and poll the
//! result accessors after letting the simulation run.

use crate::cluster::Cluster;
use ampnet_services::mpi::{CollectiveMsg, Outgoing, Rank, ReduceOp};

/// The message stream carrying collective datagrams.
pub const COLLECTIVE_STREAM: u8 = 6;

impl Cluster {
    /// Enable collectives: every node becomes a rank (rank = node id).
    pub fn enable_collectives(&mut self) {
        let n = self.cfg.n_nodes as u8;
        for i in 0..n {
            self.nodes[i as usize].rank = Some(Rank::new(i, n));
        }
    }

    /// Rank `node`'s engine, for the collective entry points below.
    #[expect(
        clippy::expect_used,
        reason = "documented gate: collective calls require enable_collectives first"
    )]
    fn rank_mut(&mut self, node: u8) -> &mut Rank {
        self.nodes[node as usize]
            .rank
            .as_mut()
            .expect("enable_collectives first")
    }

    fn coll_send(&mut self, node: u8, out: Outgoing) {
        match out {
            Outgoing::Broadcast(msg) => {
                self.send_message(node, ampnet_packet::BROADCAST, COLLECTIVE_STREAM, &msg.to_bytes());
            }
            Outgoing::To(dst, msg) => {
                if dst == node {
                    return; // self-contribution already noted locally
                }
                self.send_message(node, dst, COLLECTIVE_STREAM, &msg.to_bytes());
            }
        }
    }

    /// Rank `node` enters barrier `tag`.
    pub fn coll_barrier(&mut self, node: u8, tag: u32) {
        let out = self.rank_mut(node).barrier(tag);
        self.coll_send(node, out);
    }

    /// Has rank `node` seen everyone at barrier `tag`?
    pub fn coll_barrier_done(&self, node: u8, tag: u32) -> bool {
        self.nodes[node as usize]
            .rank
            .as_ref()
            .map(|r| r.barrier_done(tag))
            .unwrap_or(false)
    }

    /// Rank `node` contributes `value` to all-reduce `tag`.
    pub fn coll_allreduce(&mut self, node: u8, tag: u32, value: u64) {
        let out = self.rank_mut(node).allreduce(tag, value);
        self.coll_send(node, out);
    }

    /// The reduction at rank `node`, once complete.
    pub fn coll_reduce_result(&self, node: u8, tag: u32, op: ReduceOp) -> Option<u64> {
        self.nodes[node as usize]
            .rank
            .as_ref()
            .and_then(|r| r.reduce_result(tag, op))
    }

    /// Rank `node` (the root) broadcasts `value` under `tag`.
    pub fn coll_bcast(&mut self, node: u8, tag: u32, value: u64) {
        let out = self.rank_mut(node).bcast(tag, value);
        self.coll_send(node, out);
    }

    /// The broadcast value at rank `node`, once arrived.
    pub fn coll_bcast_result(&self, node: u8, tag: u32) -> Option<u64> {
        self.nodes[node as usize]
            .rank
            .as_ref()
            .and_then(|r| r.bcast_result(tag))
    }

    /// Rank `node` contributes `value` to a gather rooted at `root`.
    pub fn coll_gather(&mut self, node: u8, tag: u32, root: u8, value: u64) {
        let out = self.rank_mut(node).gather(tag, root, value);
        self.coll_send(node, out);
    }

    /// At the root: the rank-ordered values, once complete.
    pub fn coll_gather_result(&self, node: u8, tag: u32) -> Option<Vec<u64>> {
        self.nodes[node as usize]
            .rank
            .as_ref()
            .and_then(|r| r.gather_result(tag))
    }

    /// Dispatcher hook: feed collective datagrams to the rank engine.
    /// Returns true when consumed.
    pub(crate) fn try_collective(&mut self, node: u8, stream: u8, payload: &[u8]) -> bool {
        if stream != COLLECTIVE_STREAM {
            return false;
        }
        let Some(msg) = CollectiveMsg::from_bytes(payload) else {
            return false;
        };
        if let Some(rank) = self.nodes[node as usize].rank.as_mut() {
            rank.on_message(msg);
            return true;
        }
        false
    }
}
