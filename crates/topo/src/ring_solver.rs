//! Exact computation of the *largest possible logical ring* (slide 16)
//! on single-stage plants.
//!
//! Rostering "explores the network for available paths and allows the
//! creation of the largest possible logical ring". On the paper's
//! plant — nodes cabled to a handful of crossbar switches — this module
//! answers the graph-theoretic question exactly at any node count, so
//! the protocol implementation in `ampnet-roster` can be tested against
//! ground truth, and the E7 redundancy experiment can score plants
//! after failures. [`Plant::largest_ring`] routes every plant of that
//! shape here and everything else to the canonical DFS.
//!
//! ## Formulation
//!
//! Each alive node has a *switch mask*: the set of live switches it can
//! reach over live fibers. A cyclic order of distinct nodes is a valid
//! logical ring iff every (cyclically) consecutive pair of masks shares
//! a switch — that hop is threaded through the shared crossbar.
//!
//! Finding the maximum such cycle is a longest-cycle problem, NP-hard
//! in general, but AmpNet plants have at most a handful of switches, so
//! the *shared-switch graph is a union of ≤ 8 cliques*. Model the ring
//! as a closed walk in a multigraph whose vertices are switches: a node
//! whose predecessor hop uses switch `s` and successor hop uses switch
//! `t` is an edge `(s, t)` (a loop when `s = t`). A ring over a chosen
//! node set exists iff the chosen transition edges form a *connected,
//! all-degrees-even* multigraph (an Eulerian circuit) spanning the used
//! switches, with loop nodes riding along at their switch.
//!
//! Since a multiplicity ≥ 3 on any switch pair can always be reduced by
//! 2 (same parity, connectivity kept by the remaining copy), searching
//! per-pair multiplicities in {0, 1, 2} is exhaustive. With ≤ 8
//! switches that is at most 3^28 in theory but ≤ 3^6 for the 4-switch
//! plants the paper shows; we additionally prune by parity as we go.

use crate::plant::{HopRoute, NodeId, Plant, PlantRing, SwitchId};

/// Largest logical ring over a single-stage plant (ports only, ≤ 8
/// switches), exact at any node count. [`Plant::largest_ring`] selects
/// this solver from the plant's shape; trunks and stages are invisible
/// to it, so it must not be run on plants that have them.
pub fn mask_largest_ring(plant: &Plant) -> PlantRing {
    assert!(plant.is_single_stage(), "mask solver needs a single-stage plant");
    // Usable nodes and their switch masks, ascending node id.
    let nodes: Vec<(NodeId, u8)> = plant
        .node_ids()
        .map(|n| (n, plant.switch_mask(n)))
        .filter(|&(_, m)| m != 0)
        .collect();
    if nodes.is_empty() {
        return PlantRing::empty();
    }

    let live_switch_mask: u8 = nodes.iter().fold(0, |acc, &(_, m)| acc | m);
    let switch_list: Vec<u8> = (0..8).filter(|s| live_switch_mask & (1 << s) != 0).collect();

    // Enumerate candidate switch subsets R, largest node count wins.
    // (ring size, switch subset mask, transition edge multiset)
    type Candidate = (usize, u8, Vec<(u8, u8, u8)>);
    let mut best: Option<Candidate> = None;
    for bits in 1u16..(1 << switch_list.len()) {
        let r_mask: u8 = switch_list
            .iter()
            .enumerate()
            .filter(|&(i, _)| bits & (1 << i) != 0)
            .map(|(_, &s)| 1 << s)
            .sum();
        let count = nodes.iter().filter(|&&(_, m)| m & r_mask != 0).count();
        if count == 0 {
            continue;
        }
        if let Some((bc, br, _)) = &best {
            if count < *bc || (count == *bc && r_mask >= *br) {
                continue;
            }
        }
        if let Some(edges) = feasible_transitions(&nodes, r_mask) {
            best = Some((count, r_mask, edges));
        }
    }

    let Some((_, r_mask, edge_multiset)) = best else {
        return PlantRing::empty();
    };
    build_ring(&nodes, r_mask, &edge_multiset)
}

/// For the switch subset `r_mask`, find a multiset of transition edges
/// (pairs of distinct switches, with multiplicity) such that
/// * every switch in R has even, nonzero transition degree (|R| > 1),
/// * the transition multigraph is connected over R, and
/// * distinct nodes can be assigned to every edge instance (a node can
///   carry edge (s,t) iff its mask contains both switches).
///
/// Returns the chosen edges as `(s, t, multiplicity)` or `None`.
/// For |R| = 1, returns an empty edge list (all nodes ride as loops).
fn feasible_transitions(nodes: &[(NodeId, u8)], r_mask: u8) -> Option<Vec<(u8, u8, u8)>> {
    let switches: Vec<u8> = (0..8).filter(|s| r_mask & (1 << s) != 0).collect();
    if switches.len() == 1 {
        return Some(vec![]);
    }
    // Candidate pairs.
    let mut pairs: Vec<(u8, u8)> = vec![];
    for i in 0..switches.len() {
        for j in i + 1..switches.len() {
            pairs.push((switches[i], switches[j]));
        }
    }
    // Node availability per pair (how many nodes cover both switches).
    let cover = |s: u8, t: u8| -> usize {
        let need = (1u8 << s) | (1 << t);
        nodes.iter().filter(|&&(_, m)| m & need == need).count()
    };

    // Enumerate multiplicities in {0,1,2} per pair; prune by parity.
    let mut mult = vec![0u8; pairs.len()];
    search(&mut mult, 0, &pairs, &switches, nodes, &cover)
}

fn search(
    mult: &mut Vec<u8>,
    idx: usize,
    pairs: &[(u8, u8)],
    switches: &[u8],
    nodes: &[(NodeId, u8)],
    cover: &dyn Fn(u8, u8) -> usize,
) -> Option<Vec<(u8, u8, u8)>> {
    if idx == pairs.len() {
        // Check: every switch even nonzero degree, connected, realizable.
        let mut degree = [0u32; 8];
        for (k, &(s, t)) in pairs.iter().enumerate() {
            degree[s as usize] += mult[k] as u32;
            degree[t as usize] += mult[k] as u32;
        }
        for &s in switches {
            let d = degree[s as usize];
            if d == 0 || d % 2 != 0 {
                return None;
            }
        }
        if !connected(pairs, mult, switches) {
            return None;
        }
        assignment(pairs, mult, nodes)?;
        return Some(
            pairs
                .iter()
                .enumerate()
                .filter(|&(k, _)| mult[k] > 0)
                .map(|(k, &(s, t))| (s, t, mult[k]))
                .collect(),
        );
    }
    let avail = cover(pairs[idx].0, pairs[idx].1).min(2) as u8;
    for m in 0..=avail {
        mult[idx] = m;
        if let Some(sol) = search(mult, idx + 1, pairs, switches, nodes, cover) {
            return Some(sol);
        }
    }
    mult[idx] = 0;
    None
}

fn connected(pairs: &[(u8, u8)], mult: &[u8], switches: &[u8]) -> bool {
    let mut adj = vec![vec![]; 8];
    for (k, &(s, t)) in pairs.iter().enumerate() {
        if mult[k] > 0 {
            adj[s as usize].push(t);
            adj[t as usize].push(s);
        }
    }
    let mut seen = [false; 8];
    let mut stack = vec![switches[0]];
    seen[switches[0] as usize] = true;
    while let Some(s) = stack.pop() {
        for &t in &adj[s as usize] {
            if !seen[t as usize] {
                seen[t as usize] = true;
                stack.push(t);
            }
        }
    }
    switches.iter().all(|&s| seen[s as usize])
}

/// Assign a distinct node to every edge instance (a node can carry
/// edge `(s, t)` iff its mask contains both switches), or `None` when
/// no such assignment exists. Backtracking over edge instances,
/// most-constrained first; sizes are tiny (≤ 12 instances).
fn assignment(
    pairs: &[(u8, u8)],
    mult: &[u8],
    nodes: &[(NodeId, u8)],
) -> Option<Vec<(u8, u8, NodeId)>> {
    let mut instances: Vec<(u8, u8)> = vec![];
    for (k, &(s, t)) in pairs.iter().enumerate() {
        for _ in 0..mult[k] {
            instances.push((s, t));
        }
    }
    // Most-constrained instance first: fewest eligible nodes.
    instances.sort_by_key(|&(s, t)| {
        let need = (1u8 << s) | (1 << t);
        nodes.iter().filter(|&&(_, m)| m & need == need).count()
    });

    fn backtrack(
        instances: &[(u8, u8)],
        idx: usize,
        used: &mut Vec<bool>,
        nodes: &[(NodeId, u8)],
        out: &mut Vec<(u8, u8, NodeId)>,
    ) -> bool {
        if idx == instances.len() {
            return true;
        }
        let (s, t) = instances[idx];
        let need = (1u8 << s) | (1 << t);
        for i in 0..nodes.len() {
            if used[i] || nodes[i].1 & need != need {
                continue;
            }
            used[i] = true;
            out.push((s, t, nodes[i].0));
            if backtrack(instances, idx + 1, used, nodes, out) {
                return true;
            }
            out.pop();
            used[i] = false;
        }
        false
    }

    let mut used = vec![false; nodes.len()];
    let mut out = vec![];
    if backtrack(&instances, 0, &mut used, nodes, &mut out) {
        Some(out)
    } else {
        None
    }
}

/// Assemble the actual ring from a feasible transition multiset:
/// Hierholzer's algorithm over the transition multigraph, inserting
/// loop (single-switch) nodes at the first visit of their switch.
fn build_ring(nodes: &[(NodeId, u8)], r_mask: u8, edges: &[(u8, u8, u8)]) -> PlantRing {
    let usable: Vec<(NodeId, u8)> = nodes
        .iter()
        .copied()
        .filter(|&(_, m)| m & r_mask != 0)
        .collect();

    // Single-switch case: everyone loops at the one switch.
    let switches: Vec<u8> = (0..8).filter(|s| r_mask & (1 << s) != 0).collect();
    if switches.len() == 1 {
        let order: Vec<NodeId> = usable.iter().map(|&(n, _)| n).collect();
        let hops = vec![HopRoute::through(SwitchId(switches[0])); order.len()];
        return PlantRing { order, hops };
    }

    // Recover a concrete node assignment for the transition edges.
    let pairs: Vec<(u8, u8)> = edges.iter().map(|&(s, t, _)| (s, t)).collect();
    let mult: Vec<u8> = edges.iter().map(|&(_, _, m)| m).collect();
    let assigned =
        assignment(&pairs, &mult, &usable).expect("feasibility was already established");

    // Loop nodes: everyone not used as a transition, assigned to the
    // lowest switch in their mask ∩ R.
    let transition_ids: Vec<NodeId> = assigned.iter().map(|&(_, _, n)| n).collect();
    let mut loops_at: Vec<Vec<NodeId>> = vec![vec![]; 8];
    for &(n, m) in &usable {
        if !transition_ids.contains(&n) {
            let s = (m & r_mask).trailing_zeros() as usize;
            loops_at[s].push(n);
        }
    }

    // Hierholzer over the transition multigraph.
    let mut adj: Vec<Vec<(u8, usize)>> = vec![vec![]; 8]; // (other, edge idx)
    for (i, &(s, t, _)) in assigned.iter().enumerate() {
        adj[s as usize].push((t, i));
        adj[t as usize].push((s, i));
    }
    for a in adj.iter_mut() {
        a.sort();
    }
    let start = switches[0];
    let mut edge_used = vec![false; assigned.len()];
    // Iterative Hierholzer producing the vertex sequence.
    let mut circuit: Vec<u8> = vec![];
    let mut stack: Vec<u8> = vec![start];
    let mut cursor: Vec<usize> = vec![0; 8];
    while let Some(&v) = stack.last() {
        let mut advanced = false;
        while cursor[v as usize] < adj[v as usize].len() {
            let (to, ei) = adj[v as usize][cursor[v as usize]];
            cursor[v as usize] += 1;
            if !edge_used[ei] {
                edge_used[ei] = true;
                stack.push(to);
                advanced = true;
                break;
            }
        }
        if !advanced {
            circuit.push(v);
            stack.pop();
        }
    }
    circuit.reverse();
    debug_assert_eq!(circuit.first(), circuit.last());
    debug_assert_eq!(circuit.len(), assigned.len() + 1);

    // The circuit s0, s1, ..., sm (= s0): transition node i sits on the
    // hop-pair (s_i, s_{i+1}); between transitions, at vertex s_i, we
    // splice in the loop nodes of s_i (first visit only).
    let mut consumed: Vec<bool> = vec![false; assigned.len()];
    let take_edge = |s: u8, t: u8, consumed: &mut Vec<bool>| -> NodeId {
        let pos = assigned
            .iter()
            .enumerate()
            .find(|&(i, &(a, b, _))| !consumed[i] && ((a, b) == (s, t) || (a, b) == (t, s)))
            .map(|(i, _)| i)
            .expect("circuit edge must exist in assignment");
        consumed[pos] = true;
        assigned[pos].2
    };

    let mut order: Vec<NodeId> = vec![];
    let mut hops: Vec<HopRoute> = vec![];
    let mut loops_done = [false; 8];
    for w in 0..circuit.len() - 1 {
        let s = circuit[w];
        let t = circuit[w + 1];
        // Splice loop nodes at s on the first visit.
        if !loops_done[s as usize] {
            loops_done[s as usize] = true;
            for &n in &loops_at[s as usize] {
                order.push(n);
                hops.push(HopRoute::through(SwitchId(s)));
            }
        }
        // Then the transition node for hop s→t; its outgoing hop is t.
        let n = take_edge(s, t, &mut consumed);
        order.push(n);
        hops.push(HopRoute::through(SwitchId(t)));
    }
    // The final transition node's outgoing hop label must be the hop
    // back to the ring start, which is the first circuit vertex — but
    // we pushed hop `t` for each transition: the last transition's t is
    // circuit[last] = s0, and the first element of `order` sits at s0.
    // One wrinkle: the first elements of `order` are s0's loop nodes
    // (if any) whose hops are s0 — consistent.
    PlantRing { order, hops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::Component;

    fn ring_of(plant: &Plant) -> PlantRing {
        let r = mask_largest_ring(plant);
        r.validate(plant).expect("solver produced an invalid ring");
        r
    }

    fn dual(n: usize) -> Plant {
        Plant::crossbar(n, 2, 100.0)
    }

    fn quad(n: usize) -> Plant {
        Plant::crossbar(n, 4, 100.0)
    }

    fn cut(p: &mut Plant, n: u8, s: u8) {
        p.apply(Component::Link(NodeId(n), SwitchId(s)));
    }

    #[test]
    fn healthy_quad_rings_everyone() {
        assert_eq!(ring_of(&quad(6)).len(), 6);
    }

    #[test]
    fn healthy_dual_rings_everyone() {
        assert_eq!(ring_of(&dual(9)).len(), 9);
    }

    #[test]
    fn dead_node_excluded() {
        let mut p = quad(6);
        p.apply(Component::Node(NodeId(3)));
        let r = ring_of(&p);
        assert_eq!(r.len(), 5);
        assert!(!r.order.contains(&NodeId(3)));
    }

    #[test]
    fn single_switch_survives() {
        let mut p = quad(8);
        for s in 0..3 {
            p.apply(Component::Switch(SwitchId(s)));
        }
        assert_eq!(ring_of(&p).len(), 8);
    }

    #[test]
    fn all_switches_dead_means_empty() {
        let mut p = dual(4);
        p.apply(Component::Switch(SwitchId(0)));
        p.apply(Component::Switch(SwitchId(1)));
        assert!(ring_of(&p).is_empty());
    }

    #[test]
    fn bridge_node_limits_ring() {
        // a,b on sw0 only; x on both; c,d on sw1 only. Classic cut:
        // the largest cycle is 3 (one clique side plus the bridge).
        let mut p = dual(5);
        // nodes 0,1 = a,b: cut their sw1 links.
        cut(&mut p, 0, 1);
        cut(&mut p, 1, 1);
        // node 2 = x: keep both.
        // nodes 3,4 = c,d: cut their sw0 links.
        cut(&mut p, 3, 0);
        cut(&mut p, 4, 0);
        let r = ring_of(&p);
        assert_eq!(r.len(), 3, "bridge through a single node cannot close");
    }

    #[test]
    fn two_bridge_nodes_allow_full_ring() {
        // a,b on sw0; x,y on both; c,d on sw1: ring of 6 exists.
        let mut p = dual(6);
        cut(&mut p, 0, 1);
        cut(&mut p, 1, 1);
        cut(&mut p, 4, 0);
        cut(&mut p, 5, 0);
        assert_eq!(ring_of(&p).len(), 6);
    }

    #[test]
    fn isolated_node_excluded() {
        let mut p = dual(3);
        cut(&mut p, 1, 0);
        cut(&mut p, 1, 1);
        let r = ring_of(&p);
        assert_eq!(r.len(), 2);
        assert!(!r.order.contains(&NodeId(1)));
    }

    #[test]
    fn single_node_degenerate_ring() {
        assert_eq!(ring_of(&dual(1)).len(), 1);
    }

    #[test]
    fn three_switch_triangle_of_bridges() {
        // Three switches; three bridge nodes each spanning one pair;
        // plus one exclusive node per switch. Full ring of 6 exists
        // via the triangle (odd multiplicities required).
        let mut p = Plant::crossbar(6, 3, 100.0);
        let mut keep = |n: u8, keep: &[u8]| {
            for s in (0..3u8).filter(|s| !keep.contains(s)) {
                cut(&mut p, n, s);
            }
        };
        keep(0, &[0, 1]); // bridge 0-1
        keep(1, &[1, 2]); // bridge 1-2
        keep(2, &[0, 2]); // bridge 0-2
        keep(3, &[0]); // exclusive
        keep(4, &[1]);
        keep(5, &[2]);
        assert_eq!(ring_of(&p).len(), 6);
    }

    #[test]
    fn total_length_accounts_both_fibers() {
        let p = dual(4);
        // 4 hops, each 200 m of fiber.
        assert!((ring_of(&p).total_length_m(&p) - 800.0).abs() < 1e-9);
    }

    #[test]
    fn determinism() {
        let mut p = quad(10);
        p.apply(Component::Switch(SwitchId(1)));
        cut(&mut p, 2, 0);
        assert_eq!(mask_largest_ring(&p), mask_largest_ring(&p));
    }

    #[test]
    fn validate_catches_bad_rings() {
        let p = dual(3);
        let bad = PlantRing {
            order: vec![NodeId(0), NodeId(0), NodeId(1)],
            hops: vec![HopRoute::through(SwitchId(0)); 3],
        };
        assert!(bad.validate(&p).is_err());
        let mismatch = PlantRing {
            order: vec![NodeId(0)],
            hops: vec![],
        };
        assert!(mismatch.validate(&p).is_err());
    }

    /// The 64×4 plant damaged exactly as in the repo benchmark's
    /// `topo.largest_ring_crossbar64_damaged_ns` leg
    /// (`benchmark/src/legs.rs`): far above the DFS solver's exact
    /// threshold, yet every connectable survivor is still ringed.
    #[test]
    fn damaged_64_node_plant_rings_every_connectable_survivor() {
        let mut p = quad(64);
        for c in [
            Component::Switch(SwitchId(1)),
            Component::Node(NodeId(7)),
            Component::Node(NodeId(40)),
            Component::Link(NodeId(5), SwitchId(0)),
            Component::Link(NodeId(22), SwitchId(2)),
            Component::Link(NodeId(23), SwitchId(2)),
        ] {
            p.apply(c);
        }
        let connectable = p.node_ids().filter(|&n| p.connectable(n)).count();
        assert_eq!(connectable, 62);
        // Through the public entry point: shape selection must pick
        // the mask solver here.
        let r = p.largest_ring();
        r.validate(&p).unwrap();
        assert_eq!(r.len(), connectable);
        assert_eq!(r, mask_largest_ring(&p));
    }
}
