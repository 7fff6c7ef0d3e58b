//! Adaptive insertion flow control (slide 8).
//!
//! "Each node monitors its local view of the network and can increase
//! or decrease its contribution to the total flow accordingly."
//!
//! The *no-drop* property of the register-insertion MAC is structural
//! (a node only inserts when its insertion buffer is empty, and the
//! buffer is sized for the worst case — see [`crate::mac`]). What the
//! adaptive governor adds is *fairness and bounded transit latency*:
//! a node whose insertion buffer keeps filling up is a node on a
//! congested segment, so it multiplicatively backs off its insertion
//! rate; when the buffer stays empty it additively recovers. This is
//! AIMD on the inter-insertion gap.

use ampnet_sim::{SimDuration, SimTime};

/// Insertion pacing policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PacingMode {
    /// Insert whenever the MAC rules allow (ablation A1 baseline).
    Greedy,
    /// AIMD governor on the insertion gap.
    Adaptive(AimdParams),
}

/// AIMD parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AimdParams {
    /// Smallest enforced gap between own insertions (full speed).
    pub min_gap: SimDuration,
    /// Largest enforced gap (maximum back-off).
    pub max_gap: SimDuration,
    /// Additive decrease of the gap applied per uncongested insertion.
    pub recover_step: SimDuration,
    /// Multiplicative increase of the gap on congestion (e.g. 2 = double).
    pub backoff_factor: u32,
    /// Transit-buffer occupancy (bytes) at or above which the node
    /// considers its local view congested.
    pub congestion_bytes: usize,
}

impl Default for AimdParams {
    fn default() -> Self {
        AimdParams {
            min_gap: SimDuration::ZERO,
            max_gap: SimDuration::from_micros(20),
            recover_step: SimDuration::from_nanos(100),
            backoff_factor: 2,
            // Congestion means a *backlog*: more than one max-size frame
            // queued in the insertion buffer at once. A single frame in
            // normal transit passage (up to MAX_PACKET_WIRE = 84 bytes)
            // must not count, or any sustained broadcast load pins every
            // node at max_gap and own insertion collapses to a trickle
            // while the links sit mostly idle.
            congestion_bytes: crate::mac::MAX_PACKET_WIRE + 1,
        }
    }
}

/// Per-node insertion governor (inside [`RegisterMac`](crate::RegisterMac)).
#[derive(Debug, Clone)]
pub(crate) struct InsertionGovernor {
    mode: PacingMode,
    gap: SimDuration,
    next_allowed: SimTime,
    backoffs: u64,
}

/// One multiplicative back-off step, clamped into `[min_gap, max_gap]`.
///
/// With a huge `backoff_factor` the saturating multiply lands on
/// `SimDuration::MAX` and *must* be clamped. The `recover_step` floor
/// bootstraps the gap off zero, where a multiplicative step alone
/// would be stuck.
fn backed_off_gap(gap: SimDuration, p: &AimdParams) -> SimDuration {
    gap.saturating_mul(p.backoff_factor as u64)
        .max(p.recover_step)
        .clamp(p.min_gap, p.max_gap)
}

impl InsertionGovernor {
    /// New governor in the given mode.
    pub fn new(mode: PacingMode) -> Self {
        let gap = match mode {
            PacingMode::Greedy => SimDuration::ZERO,
            PacingMode::Adaptive(p) => p.min_gap,
        };
        InsertionGovernor {
            mode,
            gap,
            next_allowed: SimTime::ZERO,
            backoffs: 0,
        }
    }

    /// May the node insert its own packet now?
    pub fn may_insert(&self, now: SimTime) -> bool {
        now >= self.next_allowed
    }

    /// Earliest instant insertion will be allowed.
    pub fn next_allowed(&self) -> SimTime {
        self.next_allowed
    }

    /// Times the governor backed off.
    pub fn backoffs(&self) -> u64 {
        self.backoffs
    }

    /// Record an insertion that just started at `now`, with the current
    /// transit-buffer occupancy as the congestion signal.
    pub fn on_insert(&mut self, now: SimTime, transit_bytes: usize) {
        if let PacingMode::Adaptive(p) = self.mode {
            if transit_bytes >= p.congestion_bytes {
                // Congested: multiplicative back-off.
                self.gap = backed_off_gap(self.gap, &p);
                self.backoffs += 1;
            } else {
                // Clear: additive recovery.
                self.gap = self
                    .gap
                    .saturating_sub(p.recover_step)
                    .clamp(p.min_gap, p.max_gap);
            }
            self.next_allowed = now + self.gap;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_always_allows() {
        let mut g = InsertionGovernor::new(PacingMode::Greedy);
        assert!(g.may_insert(SimTime::ZERO));
        g.on_insert(SimTime(100), 10_000);
        assert!(g.may_insert(SimTime(100)));
        assert_eq!(g.backoffs(), 0);
    }

    #[test]
    fn adaptive_backs_off_when_congested() {
        let p = AimdParams::default();
        let mut g = InsertionGovernor::new(PacingMode::Adaptive(p));
        assert!(g.may_insert(SimTime(0)));
        g.on_insert(SimTime(0), p.congestion_bytes); // congested
        assert!(g.backoffs() == 1);
        assert!(!g.may_insert(SimTime(0)));
        let gap1 = g.gap;
        g.on_insert(g.next_allowed(), p.congestion_bytes);
        assert!(g.gap > gap1, "gap grows multiplicatively");
    }

    #[test]
    fn adaptive_recovers_when_clear() {
        let p = AimdParams::default();
        let mut g = InsertionGovernor::new(PacingMode::Adaptive(p));
        // Drive the gap up.
        for _ in 0..8 {
            g.on_insert(g.next_allowed(), p.congestion_bytes);
        }
        let congested_gap = g.gap;
        assert!(congested_gap > SimDuration::ZERO);
        // Now a long run of clear insertions recovers to min_gap.
        for _ in 0..1000 {
            g.on_insert(g.next_allowed(), 0);
        }
        assert_eq!(g.gap, p.min_gap);
    }

    #[test]
    fn gap_clamped_to_max() {
        let p = AimdParams {
            max_gap: SimDuration::from_nanos(500),
            ..AimdParams::default()
        };
        let mut g = InsertionGovernor::new(PacingMode::Adaptive(p));
        for _ in 0..64 {
            g.on_insert(g.next_allowed(), p.congestion_bytes);
        }
        assert_eq!(g.gap, SimDuration::from_nanos(500));
    }

    #[test]
    fn gap_stays_in_bounds_under_any_interleaving() {
        // The clamp invariant must hold after *any* interleaving of
        // backoff and recovery steps.
        let p = AimdParams {
            min_gap: SimDuration::from_nanos(50),
            max_gap: SimDuration::from_nanos(700),
            ..AimdParams::default()
        };
        let in_bounds = |g: &InsertionGovernor| p.min_gap <= g.gap && g.gap <= p.max_gap;
        // Exhaust every 8-step interleaving of the two transitions.
        for pattern in 0..2u32.pow(8) {
            let mut g = InsertionGovernor::new(PacingMode::Adaptive(p));
            assert!(in_bounds(&g), "initial gap out of bounds");
            let mut code = pattern;
            for step in 0..8 {
                let now = g.next_allowed();
                match code % 2 {
                    0 => g.on_insert(now, p.congestion_bytes), // backoff
                    _ => g.on_insert(now, 0),                  // recover
                }
                code /= 2;
                assert!(
                    in_bounds(&g),
                    "pattern {pattern} step {step}: gap {:?} outside [{:?}, {:?}]",
                    g.gap,
                    p.min_gap,
                    p.max_gap
                );
            }
        }
    }

    #[test]
    fn backoff_factor_overflow_saturates_then_clamps() {
        // A pathological factor drives the saturating multiply to
        // SimDuration::MAX; the clamp must still bound the gap.
        let p = AimdParams {
            min_gap: SimDuration::from_nanos(10),
            max_gap: SimDuration::from_micros(5),
            backoff_factor: u32::MAX,
            ..AimdParams::default()
        };
        let mut g = InsertionGovernor::new(PacingMode::Adaptive(p));
        for _ in 0..4 {
            g.on_insert(g.next_allowed(), p.congestion_bytes);
            assert_eq!(g.gap, p.max_gap, "saturated backoff must clamp to max_gap");
        }
        // And recovery from the clamped gap still respects the floor.
        for _ in 0..10_000 {
            g.on_insert(g.next_allowed(), 0);
        }
        assert_eq!(g.gap, p.min_gap);
    }

    #[test]
    fn single_transit_frame_is_not_congestion() {
        // Regression: the default threshold used to be 21 bytes, so a
        // lone 84-byte DMA frame passing through the insertion buffer
        // counted as congestion. Under any sustained broadcast load
        // (e.g. the workload engine's pub/sub + thread-spawn mix) every
        // node backed off to max_gap and own insertion collapsed to one
        // frame per 20 µs — semaphore responses queued for hundreds of
        // microseconds and tripped their 500 µs retransmission timers
        // on an otherwise idle ring. One max-size frame in passage is
        // normal operation; only a multi-frame backlog may back off.
        let p = AimdParams::default();
        let mut g = InsertionGovernor::new(PacingMode::Adaptive(p));
        for _ in 0..100 {
            g.on_insert(g.next_allowed(), crate::mac::MAX_PACKET_WIRE);
        }
        assert_eq!(g.backoffs(), 0, "one frame in transit must not back off");
        assert_eq!(g.gap, p.min_gap);
        // Two queued max-size frames are a real backlog: still backs off.
        g.on_insert(g.next_allowed(), 2 * crate::mac::MAX_PACKET_WIRE);
        assert_eq!(g.backoffs(), 1);
    }
}
