//! Monte Carlo failure sweeps — substrate for experiment E7
//! (slides 14–15: dual vs quad redundancy survivability).
//!
//! Each trial injects `k` random component failures (fibers and/or
//! switches; optionally nodes) into a fresh plant and scores the
//! largest logical ring that remains.

use crate::plant::{NodeId, Plant, SwitchId};
use ampnet_sim::SimRng;

/// What kinds of components a failure trial may hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureDomain {
    /// Only node–switch fibers fail.
    LinksOnly,
    /// Fibers and switches fail (weighted by component count).
    LinksAndSwitches,
    /// Fibers, switches and nodes fail.
    Everything,
}

/// One component that can fail. [`Plant::apply`] and
/// [`Plant::restore`] ignore a component the plant does not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// A node–switch fiber.
    Link(NodeId, SwitchId),
    /// A crossbar switch (or any switching element).
    Switch(SwitchId),
    /// A host node.
    Node(NodeId),
    /// A direct node–node trunk fiber (torus plants; endpoints are
    /// kept normalized `a < b`).
    Trunk(NodeId, NodeId),
    /// A switch–switch stage fiber (multistage plants; endpoints
    /// normalized `a < b`).
    Stage(SwitchId, SwitchId),
}

/// Result of one trial batch at a fixed failure count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurvivalStats {
    /// Number of injected failures per trial.
    pub failures: usize,
    /// Trials run.
    pub trials: usize,
    /// Fraction of trials where every *alive* node was still in the
    /// ring (the network "survived" from the application's viewpoint:
    /// no reachable node was orphaned).
    pub full_ring_probability: f64,
    /// Mean ring size across trials.
    pub mean_ring_size: f64,
    /// Minimum ring size observed.
    pub min_ring_size: usize,
}

/// Run `trials` random-failure trials with `k` failures each and score
/// survivability. Failures are sampled without replacement among the
/// components of `domain`.
pub fn survival_sweep(
    base: &Plant,
    k: usize,
    trials: usize,
    domain: FailureDomain,
    rng: &mut SimRng,
) -> SurvivalStats {
    let comps = base.components(domain);
    let k = k.min(comps.len());
    let mut full = 0usize;
    let mut total_size = 0usize;
    let mut min_size = usize::MAX;
    for _ in 0..trials {
        let mut plant = base.clone();
        // Sample k distinct components.
        let mut idx: Vec<usize> = (0..comps.len()).collect();
        for i in 0..k {
            let j = rng.range(i as u64, idx.len() as u64) as usize;
            idx.swap(i, j);
            plant.apply(comps[idx[i]]);
        }
        let ring = plant.largest_ring();
        let alive = plant.alive_nodes().len();
        if ring.len() == alive && alive > 0 {
            full += 1;
        }
        total_size += ring.len();
        min_size = min_size.min(ring.len());
    }
    SurvivalStats {
        failures: k,
        trials,
        full_ring_probability: full as f64 / trials.max(1) as f64,
        mean_ring_size: total_size as f64 / trials.max(1) as f64,
        min_ring_size: if trials == 0 { 0 } else { min_size },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(42)
    }

    #[test]
    fn zero_failures_always_survive() {
        let t = Plant::crossbar(6, 4, 100.0);
        let s = survival_sweep(&t, 0, 20, FailureDomain::LinksAndSwitches, &mut rng());
        assert_eq!(s.full_ring_probability, 1.0);
        assert_eq!(s.mean_ring_size, 6.0);
        assert_eq!(s.min_ring_size, 6);
    }

    #[test]
    fn single_failure_never_kills_redundant_plant() {
        for mk in [Plant::crossbar(6, 2, 100.0), Plant::crossbar(6, 4, 100.0)] {
            let s = survival_sweep(&mk, 1, 100, FailureDomain::LinksAndSwitches, &mut rng());
            assert_eq!(
                s.full_ring_probability, 1.0,
                "any single component failure must be survivable"
            );
        }
    }

    #[test]
    fn quad_beats_dual_under_heavy_failures() {
        let dual = Plant::crossbar(6, 2, 100.0);
        let quad = Plant::crossbar(6, 4, 100.0);
        let k = 3;
        let sd = survival_sweep(&dual, k, 300, FailureDomain::LinksAndSwitches, &mut rng());
        let sq = survival_sweep(&quad, k, 300, FailureDomain::LinksAndSwitches, &mut rng());
        assert!(
            sq.full_ring_probability >= sd.full_ring_probability,
            "quad {} < dual {} at k={k}",
            sq.full_ring_probability,
            sd.full_ring_probability
        );
    }

    #[test]
    fn component_enumeration_counts() {
        let t = Plant::crossbar(6, 4, 100.0);
        assert_eq!(t.components(FailureDomain::LinksOnly).len(), 24);
        assert_eq!(t.components(FailureDomain::LinksAndSwitches).len(), 28);
        assert_eq!(t.components(FailureDomain::Everything).len(), 34);
    }

    #[test]
    fn overlarge_k_is_clamped() {
        let t = Plant::crossbar(2, 2, 10.0);
        let s = survival_sweep(&t, 10_000, 5, FailureDomain::Everything, &mut rng());
        assert_eq!(s.full_ring_probability, 0.0);
        assert_eq!(s.mean_ring_size, 0.0);
    }
}
