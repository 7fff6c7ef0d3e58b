//! Cluster-level collectives: the `ampnet-services::mpi` rank engines
//! riding the simulated ring.
//!
//! Every node is a rank from boot (rank = node id); an engine holds
//! nothing until a collective runs. Collective datagrams travel on a
//! dedicated message stream ([`COLLECTIVE_STREAM`]); the dispatcher
//! feeds them to each node's rank engine automatically, so
//! applications just call
//! [`Cluster::coll_barrier`] / [`Cluster::coll_allreduce`] /
//! [`Cluster::coll_bcast`] / [`Cluster::coll_gather`] and poll the
//! result accessors after letting the simulation run. A rank the
//! cluster was not built with enters nothing and has no result.

use crate::cluster::Cluster;
use ampnet_services::mpi::{CollectiveMsg, Outgoing, Rank, ReduceOp};

/// The message stream carrying collective datagrams.
pub const COLLECTIVE_STREAM: u8 = 6;

impl Cluster {
    /// Rank `node` enters a collective (`enter` is the rank engine's
    /// call) and sends what it returns. A node the cluster was not
    /// built with enters nothing.
    fn coll_enter(&mut self, node: u8, enter: impl FnOnce(&mut Rank) -> Outgoing) {
        let Some(ctx) = self.node_mut(node) else {
            return;
        };
        match enter(&mut ctx.rank) {
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
        self.coll_enter(node, |rank| rank.barrier(tag));
    }

    /// Has rank `node` seen everyone at barrier `tag`?
    pub fn coll_barrier_done(&self, node: u8, tag: u32) -> bool {
        self.node(node).is_some_and(|n| n.rank.barrier_done(tag))
    }

    /// Rank `node` contributes `value` to all-reduce `tag`.
    pub fn coll_allreduce(&mut self, node: u8, tag: u32, value: u64) {
        self.coll_enter(node, |rank| rank.allreduce(tag, value));
    }

    /// The reduction at rank `node`, once complete.
    pub fn coll_reduce_result(&self, node: u8, tag: u32, op: ReduceOp) -> Option<u64> {
        self.node(node)?.rank.reduce_result(tag, op)
    }

    /// Rank `node` (the root) broadcasts `value` under `tag`.
    pub fn coll_bcast(&mut self, node: u8, tag: u32, value: u64) {
        self.coll_enter(node, |rank| rank.bcast(tag, value));
    }

    /// The broadcast value at rank `node`, once arrived.
    pub fn coll_bcast_result(&self, node: u8, tag: u32) -> Option<u64> {
        self.node(node)?.rank.bcast_result(tag)
    }

    /// Rank `node` contributes `value` to a gather rooted at `root`.
    pub fn coll_gather(&mut self, node: u8, tag: u32, root: u8, value: u64) {
        self.coll_enter(node, |rank| rank.gather(tag, root, value));
    }

    /// At the root: the rank-ordered values, once complete.
    pub fn coll_gather_result(&self, node: u8, tag: u32) -> Option<Vec<u64>> {
        self.node(node)?.rank.gather_result(tag)
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
        self.nodes[node as usize].rank.on_message(msg);
        true
    }
}
