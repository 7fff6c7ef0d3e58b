//! Property tests: rostering always rebuilds the *largest possible*
//! logical ring (equal to the exact solver), validates against the
//! damaged plant, and its cost accounting is internally consistent —
//! on every plant family (crossbar, 3D torus, folded Clos).

use ampnet_roster::{initial_rostering, run_rostering, RosterParams, RosterSkip};
use ampnet_sim::SimTime;
use ampnet_topo::montecarlo::{Component, FailureDomain};
use ampnet_topo::Plant;
use proptest::prelude::*;

fn arb_plant() -> impl Strategy<Value = (Plant, Vec<u16>)> {
    let crossbar = (
        2usize..=10,
        prop_oneof![Just(2usize), Just(4usize)],
        10.0f64..5_000.0,
    )
        .prop_map(|(n, s, fiber)| Plant::crossbar(n, s, fiber));
    // x >= 2 keeps every generated torus at >= 2 nodes.
    let torus = (2usize..=3, 1usize..=3, 1usize..=2, 10.0f64..5_000.0)
        .prop_map(|(x, y, z, fiber)| Plant::torus3d([x, y, z], fiber));
    let clos = (2usize..=8, 1usize..=3, 1usize..=2, 10.0f64..5_000.0)
        .prop_map(|(n, l, s, fiber)| Plant::folded_clos(n, l, s, fiber));
    (
        prop_oneof![crossbar, torus, clos],
        proptest::collection::vec(any::<u16>(), 0..6),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After any pre-damage plus one more failure, if rostering runs it
    /// commits a ring that (a) validates and (b) is exactly maximal
    /// (all generated plants are within the exact-solver threshold).
    #[test]
    fn rostering_is_maximal_and_valid(
        (mut plant, pre) in arb_plant(),
        last in any::<u16>(),
    ) {
        // Apply pre-existing damage, then compute the live ring.
        let comps = plant.components(FailureDomain::Everything);
        for f in &pre {
            plant.apply(comps[*f as usize % comps.len()]);
        }
        let current = plant.largest_ring();
        // One more failure triggers the episode.
        let failed = comps[last as usize % comps.len()];
        plant.apply(failed);
        match run_rostering(&plant, &current, failed, SimTime::ZERO, 7, &RosterParams::default()) {
            Ok(out) => {
                prop_assert!(out.ring.validate(&plant).is_ok());
                let exact = plant.largest_ring();
                prop_assert_eq!(out.ring.len(), exact.len(),
                    "committed ring not maximal");
                prop_assert_eq!(out.epoch, 8);
                // Time accounting adds up.
                let total = out.detect_time + out.explore_time + out.commit_time;
                prop_assert_eq!(out.completed_at - out.failed_at, total);
                // Explore is at least one ring tour (it IS a tour plus
                // probes), commit at least one tour of commit packets.
                prop_assert!(out.explore_time >= out.ring_tour);
            }
            Err(RosterSkip::SpareComponent) => {
                // Then the old ring must still be valid as-is.
                prop_assert!(current.validate(&plant).is_ok());
            }
            Err(RosterSkip::NoSurvivors) => {
                prop_assert!(plant.largest_ring().is_empty()
                    || plant.alive_nodes().is_empty());
            }
        }
    }

    /// Initial rostering always builds the maximal ring of the plant.
    #[test]
    fn initial_builds_maximal((mut plant, pre) in arb_plant()) {
        let comps = plant.components(FailureDomain::Everything);
        for f in &pre {
            plant.apply(comps[*f as usize % comps.len()]);
        }
        match initial_rostering(&plant, &RosterParams::default()) {
            Ok(out) => {
                prop_assert!(out.ring.validate(&plant).is_ok());
                prop_assert_eq!(out.ring.len(), plant.largest_ring().len());
            }
            Err(RosterSkip::NoSurvivors) => {
                prop_assert!(plant.alive_nodes().is_empty());
            }
            Err(e) => prop_assert!(false, "unexpected skip {:?}", e),
        }
    }

    /// Recovery time grows monotonically-ish with node count: a plant
    /// twice as large must not recover faster.
    #[test]
    fn recovery_scales_with_nodes(seed_fiber in 50.0f64..500.0) {
        let params = RosterParams::default();
        let mut prev = None;
        for n in [4usize, 8, 16, 32] {
            let mut plant = Plant::crossbar(n, 4, seed_fiber);
            let ring = plant.largest_ring();
            let dead = ring.order[1];
            plant.apply(Component::Node(dead));
            let out = run_rostering(
                &plant, &ring, Component::Node(dead), SimTime::ZERO, 0, &params,
            ).unwrap();
            if let Some(p) = prev {
                prop_assert!(out.recovery_time() > p,
                    "recovery at n={} not longer than smaller plant", n);
            }
            prev = Some(out.recovery_time());
        }
    }
}

/// Promoted from `prop_roster.proptest-regressions`: the shrunk
/// counterexample `(Plant::crossbar(3, 2, 10.0), pre = [10678,
/// 21230, 5623, 30044], last = 13760)` that once broke
/// `rostering_is_maximal_and_valid`. Replayed here as a plain,
/// deterministic test so the case survives any change to the
/// property-test framework's seeding or shrinking.
#[test]
fn regression_redundant3x2_predamaged_then_failed() {
    let mut plant = Plant::crossbar(3, 2, 10.0);
    let comps = plant.components(FailureDomain::Everything);
    let pre: [u16; 4] = [10678, 21230, 5623, 30044];
    for f in pre {
        plant.apply(comps[f as usize % comps.len()]);
    }
    let current = plant.largest_ring();
    let failed = comps[13760usize % comps.len()];
    plant.apply(failed);
    match run_rostering(&plant, &current, failed, SimTime::ZERO, 7, &RosterParams::default()) {
        Ok(out) => {
            assert!(out.ring.validate(&plant).is_ok());
            let exact = plant.largest_ring();
            assert_eq!(out.ring.len(), exact.len(), "committed ring not maximal");
            assert_eq!(out.epoch, 8);
            let total = out.detect_time + out.explore_time + out.commit_time;
            assert_eq!(out.completed_at - out.failed_at, total);
            assert!(out.explore_time >= out.ring_tour);
        }
        Err(RosterSkip::SpareComponent) => {
            assert!(current.validate(&plant).is_ok());
        }
        Err(RosterSkip::NoSurvivors) => {
            assert!(plant.largest_ring().is_empty() || plant.alive_nodes().is_empty());
        }
    }
}
