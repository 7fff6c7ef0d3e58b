//! Hostile error bursts: a `FaultOp::ErrorBurst` may name any node, seed
//! and error count. Whatever it names, the burst must neither panic nor
//! stall the run, its violation count stays within the PHY's assessed
//! window, and it is absorbed or escalated exactly as its journal line
//! implies.

use ampnet_core::{Cluster, ClusterConfig, NodeId, ObservedEvent, SimDuration};
use ampnet_ring::BURST_WINDOW_GROUPS;
use proptest::prelude::*;
use std::time::Duration;

const NODES: usize = 6;

/// Wall-clock time one burst may take. The assessed window is a few
/// thousand line groups (well under a millisecond, even unoptimised);
/// an unbounded `u32::MAX`-error burst takes minutes.
const BURST_BUDGET: Duration = Duration::from_secs(2);

/// Host time spent running `c` up to `until`.
#[expect(
    clippy::disallowed_types,
    reason = "measures the host cost of a burst; the simulation never reads it"
)]
fn host_time_to(c: &mut Cluster, until: ampnet_core::SimTime) -> Duration {
    let start = std::time::Instant::now();
    c.run_until(until);
    start.elapsed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn error_bursts_are_bounded_and_resolve_as_journalled(
        node in prop_oneof![0u8..NODES as u8, any::<u8>()],
        seed in any::<u64>(),
        errors in prop_oneof![Just(0u32), Just(u32::MAX), 0u32..64, any::<u32>()],
    ) {
        let mut c = Cluster::new(ClusterConfig::small(NODES).with_seed(seed));
        c.run_for(SimDuration::from_millis(5));
        prop_assert!(c.ring_up(), "a healthy cluster boots");
        c.enable_trace(64);
        let on_ring = c.ring().order.contains(&NodeId(node));
        let from = c.observations().len();
        let at = c.now() + SimDuration::from_millis(1);
        c.schedule_error_burst(at, node, seed, errors);

        let spent = host_time_to(&mut c, at);
        prop_assert!(spent < BURST_BUDGET, "{errors} errors took {spent:?}");

        let journal: Vec<&ObservedEvent> = c.observations()[from..]
            .iter()
            .filter(|(t, _)| *t == at)
            .map(|(_, ev)| ev)
            .collect();
        if node as usize >= NODES {
            // A node the plant does not have: the burst hits nothing.
            prop_assert!(journal.is_empty(), "{journal:?}");
        } else {
            let detected = match journal.first() {
                Some(&&ObservedEvent::ErrorBurst { node: n, errors: e, detected }) => {
                    prop_assert_eq!((n, e), (node, errors));
                    detected
                }
                other => panic!("no burst line: {other:?}"),
            };
            prop_assert!(detected as usize <= BURST_WINDOW_GROUPS);
            if errors == 0 {
                prop_assert_eq!(detected, 0);
            }
            let escalated = detected > 0 && on_ring;
            match journal.get(1) {
                Some(ObservedEvent::ErrorBurstEscalated { node: n, .. }) => {
                    prop_assert!(escalated, "escalated with {detected} violations");
                    prop_assert_eq!(*n, node);
                }
                Some(ObservedEvent::ErrorBurstAbsorbed { node: n }) => {
                    prop_assert!(!escalated, "absorbed with {detected} violations");
                    prop_assert_eq!(*n, node);
                }
                other => panic!("no outcome: {other:?}"),
            }

            let dump = c.trace().dump();
            let line =
                format!("node {node}: bit-error burst, {errors} injected, {detected} violations");
            prop_assert!(dump.contains(&line), "{dump}");
            prop_assert_eq!(dump.contains(&format!("node {node}: burst escalated")), escalated);
        }
    }
}
