//! The adaptive slice planner for the sharded conservative-PDES
//! engine.
//!
//! PR 5's engine clamped every time slice to the minimum bridge
//! latency. That is the textbook conservative bound, but it charges
//! the *worst-case* synchronization price on every slice: the scale
//! bench measured two barrier crossings and a full exchange scan per
//! 5 µs of simulated time even when no bridge carried any traffic for
//! milliseconds. The APEnet status report's scaling argument (links
//! with no pending traffic cost nothing) applies directly: shards only
//! interact through bridge crossings, and a crossing's delivery
//! instant is known *exactly* the moment it is queued (`deliver_at =
//! boundary + latency`). So the planner:
//!
//! * **Grows the slice adaptively** — each boundary where the exchange
//!   moved no traffic doubles the next slice, up to
//!   [`MAX_SLICE_GROWTH`]× the base; any boundary that moved traffic
//!   resets it. Long quiet phases converge to a few cheap exchanges.
//! * **Clamps to crossing maturity** — while a crossing is in flight
//!   the boundary never passes `deliver_at`, so the far shard receives
//!   it at exactly its maturity instant. This is the invariant the
//!   `ampnet-check` `slice-planner` model proves exhaustively.
//! * **Skips dead air** — if every shard's next pending event lies
//!   beyond the tentative boundary, the boundary jumps straight to the
//!   earliest one (or the deadline): no shard can generate traffic
//!   before then, so the skipped boundaries were pure overhead.
//!
//! Why determinism survives: every decision is a pure function of
//! shard-visible state at a boundary (queue peeks, in-flight
//! crossings), all of which is itself a deterministic function of the
//! seed — no wall-clock, no thread identity. Serial and threaded modes
//! feed the planner identical inputs and therefore advance through
//! identical boundary sequences; `tests/parallel_equivalence.rs` pins
//! this for both policies.

use ampnet_sim::{SimDuration, SimTime};

/// How the engine sizes its lockstep time slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lookahead {
    /// Every slice is the base length (PR-5 behavior): boundary =
    /// `min(now + slice, deadline)`, clamped to crossing maturity.
    /// Kept as the simplest reference execution: the equivalence
    /// tests and the `slice-planner-fixed` check model run it beside
    /// the adaptive policy.
    Fixed,
    /// Adaptive slice sizing: quiet boundaries double the slice (up to
    /// [`MAX_SLICE_GROWTH`]× base), busy boundaries reset it, and dead
    /// air between events is skipped entirely. The default.
    #[default]
    Adaptive,
}

/// Cap on adaptive slice growth, as a multiple of the base slice.
///
/// The cap bounds how long a datagram can sit in a router inbox before
/// the next exchange (route-stream inboxes are only drained at
/// boundaries, so the base quantization argument in `multiseg.rs`
/// stretches to `MAX_SLICE_GROWTH × base` during quiet phases). 64
/// keeps that bound well under the millisecond scales the scenarios
/// assert on while still eliding ~98% of quiet exchanges.
pub const MAX_SLICE_GROWTH: u32 = 64;

/// Consecutive quiet exchanges required before the planner starts
/// fusing slices. Two in a row distinguishes a genuine quiet phase
/// from the single quiet boundary that trails every burst.
pub const FUSE_AFTER: u32 = 2;

/// Width of a fused window, in multiples of the current (grown) slice.
/// A fused boundary stands in for up to this many back-to-back quiet
/// slices: one plan, one publication, one exchange check instead of
/// `FUSE_FACTOR`. Only applied when no crossing is in flight, so no
/// maturity instant can fall inside the fused window (the
/// `slice-planner` model in `ampnet-check` proves the guard).
pub const FUSE_FACTOR: u32 = 8;

/// Pure boundary decision for one adaptive slice. Exhaustively checked
/// by the `slice-planner` model in `ampnet-check`; the engine calls it
/// through [`SlicePlanner::boundary`].
///
/// * `slice` — current (possibly grown) slice length.
/// * `earliest_event` — earliest pending local event across all
///   shards (`None` when every queue is empty); must be `> now`.
/// * `earliest_crossing` — earliest in-flight crossing maturity;
///   instants `<= now` are ignored (they are delivered at the current
///   boundary, not a future one).
///
/// Guarantees (for `deadline > now`): the result is in
/// `(now, deadline]`, and never past `earliest_crossing`.
pub fn plan_boundary(
    now: SimTime,
    slice: SimDuration,
    deadline: SimTime,
    earliest_event: Option<SimTime>,
    earliest_crossing: Option<SimTime>,
) -> SimTime {
    debug_assert!(deadline > now, "planning a slice after the deadline");
    let mut step = SimTime(now.0.saturating_add(slice.as_nanos())).min(deadline);
    match earliest_event {
        // Dead air: no shard has an event before the tentative
        // boundary, so nothing can happen until the first one — jump.
        Some(ev) if ev > step => step = ev.min(deadline),
        // No local events anywhere: only crossings or the deadline can
        // make anything happen.
        None => step = deadline,
        _ => {}
    }
    // Never overshoot an in-flight crossing's maturity: the exchange
    // delivers crossings at boundaries, so a boundary past `deliver_at`
    // would inject the datagram late.
    if let Some(x) = earliest_crossing {
        if x > now && x < step {
            step = x;
        }
    }
    step
}

/// Per-run slice-sizing state: the base slice, the current (grown)
/// slice and the [`Lookahead`] policy. Owned by
/// `MultiSegment::run_until`; fresh per call, so repeated runs of the
/// same scenario stay bit-identical. `Clone` so the `ampnet-check`
/// slice-planner model can carry one per explored state.
#[derive(Debug, Clone)]
pub struct SlicePlanner {
    base: SimDuration,
    cur: SimDuration,
    policy: Lookahead,
    /// Consecutive exchanges that moved no traffic. Drives slice
    /// fusion; reset by any boundary that moved traffic.
    quiet_streak: u32,
}

impl SlicePlanner {
    /// A planner starting at `base` under `policy`.
    pub fn new(base: SimDuration, policy: Lookahead) -> Self {
        SlicePlanner {
            base,
            cur: base,
            policy,
            quiet_streak: 0,
        }
    }

    /// The slice length the next boundary will be planned with.
    pub fn current_slice(&self) -> SimDuration {
        self.cur
    }

    /// Whether the next boundary would be planned as a fused window
    /// (given that no crossing is in flight at plan time).
    pub fn fusing(&self) -> bool {
        self.policy == Lookahead::Adaptive && self.quiet_streak >= FUSE_AFTER
    }

    /// Decide the next boundary. See [`plan_boundary`] for the
    /// adaptive semantics; [`Lookahead::Fixed`] reproduces the PR-5
    /// decision exactly (no growth, no dead-air skip).
    pub fn boundary(
        &self,
        now: SimTime,
        deadline: SimTime,
        earliest_event: Option<SimTime>,
        earliest_crossing: Option<SimTime>,
    ) -> SimTime {
        match self.policy {
            Lookahead::Fixed => {
                let mut step = SimTime(now.0.saturating_add(self.base.as_nanos())).min(deadline);
                if let Some(x) = earliest_crossing {
                    if x > now && x < step {
                        step = x;
                    }
                }
                step
            }
            Lookahead::Adaptive => {
                // Slice fusion: in an established quiet phase
                // (FUSE_AFTER+ consecutive exchanges moved nothing)
                // with no crossing in flight, plan one FUSE_FACTOR-wide
                // window instead of re-planning each slice. The guard
                // matters: with no crossing queued, no maturity instant
                // can fall inside the window, and any crossing *queued*
                // during it is, by the boundary-quantization rule,
                // picked up at the fused boundary — exactly where the
                // drain for these notional slices would have coalesced.
                let window = if self.fusing() && earliest_crossing.is_none() {
                    self.cur.saturating_mul(FUSE_FACTOR as u64)
                } else {
                    self.cur
                };
                plan_boundary(now, window, deadline, earliest_event, earliest_crossing)
            }
        }
    }

    /// Record whether the exchange at the boundary just reached moved
    /// any traffic (drained a route stream or delivered a crossing).
    /// Quiet boundaries double the adaptive slice up to
    /// [`MAX_SLICE_GROWTH`]× base and extend the quiet streak that
    /// arms slice fusion; busy ones reset both.
    pub fn note_exchange(&mut self, moved_traffic: bool) {
        if self.policy != Lookahead::Adaptive {
            return;
        }
        if moved_traffic {
            self.cur = self.base;
            self.quiet_streak = 0;
        } else {
            let cap = self.base.saturating_mul(MAX_SLICE_GROWTH as u64);
            self.cur = SimDuration(self.cur.as_nanos().saturating_mul(2)).min(cap);
            self.quiet_streak = self.quiet_streak.saturating_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000;

    #[test]
    fn fixed_policy_matches_pr5_decision() {
        let p = SlicePlanner::new(SimDuration(5 * US), Lookahead::Fixed);
        // Plain slice.
        assert_eq!(
            p.boundary(SimTime(0), SimTime(100 * US), Some(SimTime(1)), None),
            SimTime(5 * US)
        );
        // Deadline clamp.
        assert_eq!(
            p.boundary(SimTime(98 * US), SimTime(100 * US), None, None),
            SimTime(100 * US)
        );
        // Crossing clamp.
        assert_eq!(
            p.boundary(SimTime(0), SimTime(100 * US), None, Some(SimTime(3 * US))),
            SimTime(3 * US)
        );
        // Fixed never dead-air-skips, even with no events anywhere.
        assert_eq!(
            p.boundary(SimTime(0), SimTime(100 * US), None, None),
            SimTime(5 * US)
        );
    }

    #[test]
    fn adaptive_grows_on_quiet_and_resets_on_traffic() {
        let mut p = SlicePlanner::new(SimDuration(5 * US), Lookahead::Adaptive);
        assert_eq!(p.current_slice(), SimDuration(5 * US));
        p.note_exchange(false);
        assert_eq!(p.current_slice(), SimDuration(10 * US));
        p.note_exchange(false);
        assert_eq!(p.current_slice(), SimDuration(20 * US));
        for _ in 0..20 {
            p.note_exchange(false);
        }
        assert_eq!(
            p.current_slice(),
            SimDuration(5 * US * MAX_SLICE_GROWTH as u64),
            "growth caps at MAX_SLICE_GROWTH x base"
        );
        p.note_exchange(true);
        assert_eq!(p.current_slice(), SimDuration(5 * US), "traffic resets");
    }

    #[test]
    fn boundary_never_passes_a_crossing_maturity() {
        for slice in [US, 7 * US, 640 * US] {
            for cross in [2 * US, 6 * US, 50 * US] {
                let b = plan_boundary(
                    SimTime(0),
                    SimDuration(slice),
                    SimTime(1_000 * US),
                    Some(SimTime(100 * US)),
                    Some(SimTime(cross)),
                );
                assert!(b <= SimTime(cross), "slice {slice} overshot crossing {cross}");
                assert!(b > SimTime(0));
            }
        }
    }

    #[test]
    fn dead_air_jumps_to_earliest_event() {
        // Events far beyond the slice: jump straight to them.
        let b = plan_boundary(
            SimTime(10),
            SimDuration(5 * US),
            SimTime(1_000 * US),
            Some(SimTime(400 * US)),
            None,
        );
        assert_eq!(b, SimTime(400 * US));
        // No events at all: jump to the deadline.
        let b = plan_boundary(SimTime(10), SimDuration(5 * US), SimTime(1_000 * US), None, None);
        assert_eq!(b, SimTime(1_000 * US));
        // Events inside the slice: plain boundary.
        let b = plan_boundary(
            SimTime(0),
            SimDuration(5 * US),
            SimTime(1_000 * US),
            Some(SimTime(2 * US)),
            None,
        );
        assert_eq!(b, SimTime(5 * US));
    }

    #[test]
    fn fusion_arms_after_quiet_streak_and_disarms_on_traffic() {
        let mut p = SlicePlanner::new(SimDuration(5 * US), Lookahead::Adaptive);
        assert!(!p.fusing(), "fresh planner must not fuse");
        p.note_exchange(false);
        assert!(!p.fusing(), "one quiet exchange is not a quiet phase");
        p.note_exchange(false);
        assert!(p.fusing(), "FUSE_AFTER quiet exchanges arm fusion");
        // Armed + no crossing in flight: the window is FUSE_FACTOR x
        // the grown slice (here 20 µs after two doublings).
        let b = p.boundary(SimTime(0), SimTime(10_000 * US), Some(SimTime(1)), None);
        assert_eq!(b, SimTime(20 * US * FUSE_FACTOR as u64));
        // A crossing in flight suppresses fusion entirely: the plain
        // grown slice applies and the maturity clamp still wins.
        let b = p.boundary(SimTime(0), SimTime(10_000 * US), Some(SimTime(1)), Some(SimTime(7 * US)));
        assert_eq!(b, SimTime(7 * US));
        p.note_exchange(true);
        assert!(!p.fusing(), "traffic resets the quiet streak");
        let b = p.boundary(SimTime(0), SimTime(10_000 * US), Some(SimTime(1)), None);
        assert_eq!(b, SimTime(5 * US), "back to the base slice");
    }

    #[test]
    fn fused_window_respects_deadline_and_dead_air() {
        let mut p = SlicePlanner::new(SimDuration(5 * US), Lookahead::Adaptive);
        for _ in 0..FUSE_AFTER {
            p.note_exchange(false);
        }
        assert!(p.fusing());
        // Deadline clamp.
        let b = p.boundary(SimTime(0), SimTime(30 * US), Some(SimTime(1)), None);
        assert_eq!(b, SimTime(30 * US));
        // Dead-air jump still applies past the fused window.
        let b = p.boundary(SimTime(0), SimTime(10_000 * US), Some(SimTime(900 * US)), None);
        assert_eq!(b, SimTime(900 * US));
        // Fixed policy never fuses.
        let f = SlicePlanner::new(SimDuration(5 * US), Lookahead::Fixed);
        let b = f.boundary(SimTime(0), SimTime(10_000 * US), None, None);
        assert_eq!(b, SimTime(5 * US));
    }

    #[test]
    fn boundary_always_makes_progress() {
        // Saturation and clamp corners: the boundary is always > now.
        for now in [0, 5 * US, u64::MAX - 3] {
            for ev in [None, Some(SimTime(u64::MAX - 1))] {
                let b = plan_boundary(
                    SimTime(now),
                    SimDuration(5 * US),
                    SimTime(u64::MAX - 2).max(SimTime(now + 1)),
                    ev,
                    None,
                );
                assert!(b > SimTime(now), "stalled at {now}");
            }
        }
    }
}
