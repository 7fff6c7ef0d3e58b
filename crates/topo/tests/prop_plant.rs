//! Property tests: the plant ring solvers are exact.
//!
//! For plants of ≤ 8 nodes — below `GRAPH_EXACT_THRESHOLD`, so every
//! family runs an exact regime — brute-force the longest simple
//! cycle over the hop-adjacency relation (`Plant::hop_route`) and the
//! solver must match it on all three families: crossbar (the paper's
//! plant, solved by the Eulerian mask search), 3D torus (direct
//! trunks) and folded Clos (leaf/spine stages), the latter two solved
//! by the canonical DFS. The solver's ring must also always validate
//! against the damaged plant. On single-stage plants, where both
//! solvers are exact, they are additionally run against each other.

use ampnet_topo::montecarlo::{Component, FailureDomain};
use ampnet_topo::solvers::{dfs_largest_ring, mask_largest_ring};
use ampnet_topo::{NodeId, Plant, GRAPH_EXACT_THRESHOLD};
use proptest::prelude::*;

/// Longest cycle (≥ 2 nodes) over connectable nodes where every
/// cyclically consecutive pair has a usable hop route; 0 when no such
/// cycle exists. Mirrors the solver's cycle semantics; the degenerate
/// single-node ring is checked separately.
fn brute_force_max_cycle(plant: &Plant) -> usize {
    let nodes: Vec<NodeId> = plant
        .node_ids()
        .filter(|&n| plant.connectable(n))
        .collect();
    let n = nodes.len();
    if n < 2 {
        return 0;
    }
    let mut adj = vec![vec![false; n]; n];
    for i in 0..n {
        for j in i + 1..n {
            if plant.hop_route(nodes[i], nodes[j]).is_some() {
                adj[i][j] = true;
                adj[j][i] = true;
            }
        }
    }
    let mut best = 0;
    for sub in 1u32..(1 << n) {
        let members: Vec<usize> = (0..n).filter(|i| sub & (1 << i) != 0).collect();
        let k = members.len();
        if k < 2 || k <= best {
            continue;
        }
        let mut perm: Vec<usize> = members[1..].to_vec();
        if permute_check(&adj, members[0], &mut perm, 0) {
            best = k;
        }
    }
    best
}

/// Try all circular orders of `rest` after `first`, pruning on prefix
/// adjacency; true when some order closes into a cycle.
fn permute_check(adj: &[Vec<bool>], first: usize, rest: &mut Vec<usize>, at: usize) -> bool {
    if at == rest.len() {
        // Prefix adjacency held throughout; only the closing hop and
        // the first hop remain to check.
        return adj[first][rest[0]] && adj[*rest.last().unwrap()][first];
    }
    for i in at..rest.len() {
        rest.swap(at, i);
        let prev = if at == 0 { first } else { rest[at - 1] };
        // The first hop (first → rest[0]) is checked at close time so
        // 2-cycles fall out naturally.
        if (at == 0 || adj[prev][rest[at]]) && permute_check(adj, first, rest, at + 1) {
            rest.swap(at, i);
            return true;
        }
        rest.swap(at, i);
    }
    false
}

/// Apply `fails` damage picks to the plant, each resolved modulo the
/// full component enumeration (fibers, elements, nodes).
fn damage(mut plant: Plant, fails: Vec<u16>) -> Plant {
    let comps = plant.components(FailureDomain::Everything);
    for f in fails {
        plant.apply(comps[f as usize % comps.len()]);
    }
    plant
}

/// Damaged single-stage (port-only) plants small enough for the DFS
/// to be exhaustive, with up to the full 8 switches the mask solver
/// supports. Every node keeps only the ports in its own sparse random
/// mask (two random bytes ANDed: a quarter of the ports on average, so
/// bridges, islands and isolated nodes are the common case, not the
/// exception), then a few random elements and nodes fail on top.
fn arb_single_stage() -> impl Strategy<Value = Plant> {
    (
        1usize..=GRAPH_EXACT_THRESHOLD,
        1usize..=8,
        proptest::collection::vec(any::<u16>(), GRAPH_EXACT_THRESHOLD),
        proptest::collection::vec(any::<u16>(), 0..3),
    )
        .prop_map(|(n, s, keep, fails)| {
            let mut plant = Plant::crossbar(n, s, 100.0);
            for c in plant.link_components() {
                if let Component::Link(node, sw) = c {
                    let k = keep[node.0 as usize];
                    if k & (k >> 8) & (1 << sw.0) == 0 {
                        plant.apply(c);
                    }
                }
            }
            damage(plant, fails)
        })
}

fn arb_plant() -> impl Strategy<Value = Plant> {
    let picks = || proptest::collection::vec(any::<u16>(), 0..10);
    let crossbar = (1usize..=8, 1usize..=4, picks())
        .prop_map(|(n, s, fails)| damage(Plant::crossbar(n, s, 100.0), fails));
    let torus = (0usize..6, picks()).prop_map(|(which, fails)| {
        // Dim triples with ≤ 8 nodes, covering 1-, 2- and 3-D shapes.
        let dims = [[2, 2, 2], [4, 2, 1], [3, 2, 1], [2, 2, 1], [8, 1, 1], [5, 1, 1]][which];
        damage(Plant::torus3d(dims, 100.0), fails)
    });
    let clos = (1usize..=8, 1usize..=4, 1usize..=2, picks())
        .prop_map(|(n, l, s, fails)| damage(Plant::folded_clos(n, l, s, 100.0), fails));
    prop_oneof![crossbar, torus, clos]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whatever the family and damage, the solver's ring validates.
    #[test]
    fn solver_rings_validate(plant in arb_plant()) {
        let ring = plant.largest_ring();
        prop_assert!(ring.validate(&plant).is_ok(), "{:?}", ring.validate(&plant));
    }

    /// Below the exact threshold the solver equals brute force on
    /// every family; when no cycle exists at all, it returns at most
    /// the degenerate single-node ring.
    #[test]
    fn solver_is_exact_on_all_families(plant in arb_plant()) {
        let ring = plant.largest_ring();
        let brute = brute_force_max_cycle(&plant);
        if brute >= 2 {
            prop_assert_eq!(
                ring.len(), brute,
                "family {}: solver {} vs brute {}", plant.family(), ring.len(), brute
            );
        } else {
            prop_assert!(ring.len() <= 1, "family {}: phantom cycle", plant.family());
        }
    }

    /// The two solvers check each other: on single-stage plants within
    /// the DFS's exhaustive regime, the Eulerian mask search and the
    /// canonical DFS find rings of the same size and both validate.
    #[test]
    fn mask_and_dfs_solvers_agree(plant in arb_single_stage()) {
        let mask = mask_largest_ring(&plant);
        let dfs = dfs_largest_ring(&plant);
        prop_assert!(mask.validate(&plant).is_ok(), "mask: {:?}", mask.validate(&plant));
        prop_assert!(dfs.validate(&plant).is_ok(), "dfs: {:?}", dfs.validate(&plant));
        prop_assert_eq!(mask.len(), dfs.len(), "mask {:?} vs dfs {:?}", &mask, &dfs);
        // A lone connectable node still forms the degenerate 1-ring.
        let any_connectable = plant.node_ids().any(|n| plant.connectable(n));
        prop_assert_eq!(mask.is_empty(), !any_connectable);
    }

    /// Restoring every failed component returns the full ring (every
    /// family's healthy plant rings all nodes).
    #[test]
    fn restore_heals(plant in arb_plant()) {
        let mut healed = plant;
        // failed_components() shrinks as we restore; drain it fully.
        loop {
            let failed = healed.failed_components();
            if failed.is_empty() {
                break;
            }
            for c in failed {
                healed.restore(c);
            }
        }
        for n in healed.node_ids().collect::<Vec<_>>() {
            healed.restore(Component::Node(n));
        }
        prop_assert_eq!(healed.largest_ring().len(), healed.n_nodes());
    }
}
