//! Property tests over the whole cluster: for arbitrary survivable
//! failure schedules, the system invariants hold — the ring heals to
//! the exact maximum, nothing drops, caches reconverge, and the run is
//! deterministic.

use ampnet_core::{Cluster, ClusterConfig, Component, NodeId, SimDuration, SwitchId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Fault {
    Node(u8),
    Switch(u8),
    Link(u8, u8),
}

fn arb_schedule(n_nodes: usize) -> impl Strategy<Value = Vec<(u64, Fault)>> {
    let fault = prop_oneof![
        (0..n_nodes as u8).prop_map(Fault::Node),
        (1u8..4).prop_map(Fault::Switch), // keep switch 0 candidates alive
        ((0..n_nodes as u8), (0u8..4)).prop_map(|(n, s)| Fault::Link(n, s)),
    ];
    proptest::collection::vec(((500u64..15_000), fault), 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary (survivable) fault schedules: ring heals maximally,
    /// no MAC ever drops, surviving replicas reconverge.
    #[test]
    fn fault_schedule_invariants(
        schedule in arb_schedule(8),
        seed in 0u64..1000,
    ) {
        let n = 8usize;
        let mut c = Cluster::new(ClusterConfig::small(n).with_seed(seed));
        c.run_for(SimDuration::from_millis(5));
        prop_assume!(c.ring_up());

        // Background cache traffic from every node.
        for src in 0..n as u8 {
            c.cache_write(src, 0, src as u32 * 256, &[src; 64]).unwrap();
        }
        // Inject the schedule, skipping faults that would kill nodes
        // 0..2 (keep a quorum for simple assertions).
        let base = c.now();
        let mut killed_nodes = std::collections::BTreeSet::new();
        for (us, f) in &schedule {
            let at = base + SimDuration::from_micros(*us);
            match f {
                Fault::Node(id) if *id >= 2 => {
                    killed_nodes.insert(*id);
                    c.schedule_failure(at, Component::Node(NodeId(*id)));
                }
                Fault::Switch(s) => {
                    c.schedule_failure(at, Component::Switch(SwitchId(*s)));
                }
                Fault::Link(nd, s) => {
                    c.schedule_failure(at, Component::Link(NodeId(*nd), SwitchId(*s)));
                }
                _ => {}
            }
        }
        c.run_for(SimDuration::from_millis(80));

        // Ring healed and is exactly maximal.
        prop_assert!(c.ring_up(), "ring did not heal");
        let exact = c.topology().largest_ring();
        prop_assert_eq!(c.ring().len(), exact.len());
        // Paper's no-drop guarantee.
        prop_assert_eq!(c.total_drops(), 0);
        // All surviving replicas byte-identical after replay.
        prop_assert!(c.caches_converged(), "caches diverged");
        // Post-heal traffic works.
        c.send_message(0, 1, 0, b"alive");
        c.run_for(SimDuration::from_millis(2));
        prop_assert_eq!(c.pop_message(1).map(|d| d.payload), Some(b"alive".to_vec()));
    }

    /// Bit-exact determinism for any schedule.
    #[test]
    fn determinism_for_any_schedule(
        schedule in arb_schedule(6),
        seed in 0u64..100,
    ) {
        let run = || {
            let mut c = Cluster::new(ClusterConfig::small(6).with_seed(seed));
            c.run_for(SimDuration::from_millis(5));
            let base = c.now();
            for (us, f) in &schedule {
                let at = base + SimDuration::from_micros(*us);
                match f {
                    Fault::Node(id) if *id >= 2 && (*id as usize) < 6 => {
                        c.schedule_failure(at, Component::Node(NodeId(*id)));
                    }
                    Fault::Switch(s) => {
                        c.schedule_failure(at, Component::Switch(SwitchId(*s)));
                    }
                    Fault::Link(nd, s) if (*nd as usize) < 6 => {
                        c.schedule_failure(at, Component::Link(NodeId(*nd), SwitchId(*s)));
                    }
                    _ => {}
                }
            }
            c.cache_write(0, 0, 0, b"det").unwrap();
            c.run_for(SimDuration::from_millis(40));
            (
                c.epoch(),
                c.ring().order.clone(),
                c.now().as_nanos(),
                c.certifications().count(),
            )
        };
        prop_assert_eq!(run(), run());
    }
}
