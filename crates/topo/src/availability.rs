//! Analytic availability bounds — a cross-check for the Monte Carlo
//! sweeps of experiment E7.
//!
//! For `k` uniform random *fiber* failures in a plant of `n` nodes ×
//! `s` switches (all switches healthy), the full logical ring can only
//! survive if no node lost all `s` of its fibers. The probability of
//! that necessary condition has a closed form by inclusion–exclusion
//! over which nodes get isolated, with hypergeometric counting. It is
//! an *upper bound* on ring survival (necessary, not sufficient: even
//! with every node connected somewhere, the Eulerian conditions of the
//! ring construction can still fail), so the tests assert that the
//! Monte Carlo results never exceed it.

/// Binomial coefficient as f64 (exact for the small ranges used).
fn choose(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0f64;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

/// P(no node loses all its fibers | exactly `k` of the `n*s` fibers
/// fail, uniformly without replacement). Inclusion–exclusion over the
/// set of isolated nodes.
pub fn p_no_isolated_node(n_nodes: u64, n_switches: u64, k: u64) -> f64 {
    let total = n_nodes * n_switches;
    if k > total {
        return 0.0;
    }
    let denom = choose(total, k);
    let mut p = 0.0f64;
    // Sum over j = number of nodes forced fully dark.
    let max_j = (k / n_switches).min(n_nodes);
    for j in 0..=max_j {
        let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
        // Choose j nodes to isolate (all their s fibers fail), then
        // place the remaining k - j*s failures anywhere else.
        let ways = choose(n_nodes, j)
            * choose(total - j * n_switches, k - j * n_switches);
        p += sign * ways / denom;
    }
    p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::{survival_sweep, FailureDomain};
    use crate::plant::Plant;
    use ampnet_sim::SimRng;

    #[test]
    fn choose_basics() {
        assert_eq!(choose(5, 0), 1.0);
        assert_eq!(choose(5, 5), 1.0);
        assert_eq!(choose(5, 2), 10.0);
        assert_eq!(choose(3, 4), 0.0);
        assert_eq!(choose(52, 5), 2_598_960.0);
    }

    #[test]
    fn extremes() {
        // k = 0: certainly nobody isolated.
        assert_eq!(p_no_isolated_node(6, 4, 0), 1.0);
        // All fibers dead: everyone isolated.
        assert_eq!(p_no_isolated_node(6, 2, 12), 0.0);
        // Fewer failures than one node's fibers: impossible to isolate.
        assert_eq!(p_no_isolated_node(6, 4, 3), 1.0);
    }

    #[test]
    fn small_case_by_hand() {
        // 2 nodes × 2 switches, k = 2 of 4 fibers fail.
        // C(4,2) = 6 outcomes; node A isolated in exactly 1, node B in
        // 1, never both ⇒ P(no isolation) = 4/6.
        let p = p_no_isolated_node(2, 2, 2);
        assert!((p - 4.0 / 6.0).abs() < 1e-12, "{p}");
    }

    #[test]
    fn monotone_in_failures() {
        let mut last = 1.0;
        for k in 0..=16 {
            let p = p_no_isolated_node(8, 2, k);
            assert!(p <= last + 1e-12, "k={k}: {p} > {last}");
            last = p;
        }
    }

    #[test]
    fn quad_bound_dominates_dual() {
        for k in 1..=8 {
            let dual = p_no_isolated_node(6, 2, k);
            let quad = p_no_isolated_node(6, 4, k);
            assert!(quad >= dual - 1e-12, "k={k}");
        }
    }

    #[test]
    fn monte_carlo_respects_analytic_bound() {
        // Survival requires (at least) no isolated node: the simulated
        // full-ring probability must not exceed the analytic bound by
        // more than sampling noise.
        let mut rng = SimRng::new(99);
        for (n, s) in [(6usize, 2usize), (6, 4)] {
            let base = Plant::crossbar(n, s, 100.0);
            for k in [2usize, 4, 6] {
                let mc =
                    survival_sweep(&base, k, 400, FailureDomain::LinksOnly, &mut rng);
                let bound = p_no_isolated_node(n as u64, s as u64, k as u64);
                assert!(
                    mc.full_ring_probability <= bound + 0.06,
                    "n={n} s={s} k={k}: MC {} > bound {}",
                    mc.full_ring_probability,
                    bound
                );
            }
        }
    }
}
