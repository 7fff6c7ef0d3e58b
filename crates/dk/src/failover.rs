//! Application failover (slides 18–19).
//!
//! > Millisecond application failure detection. Application definable
//! > fail-over period. Control passes to the best qualified computer.
//! > Applies Application Rules of Recovery. No down time and no loss
//! > of data!
//!
//! The engine watches a control group's leader via application
//! heartbeats (written into the network cache, so every member sees
//! them). When the leader goes silent, survivors wait out the
//! *application-definable failover period* (grace for transient
//! stalls), then the best-qualified survivor takes control and applies
//! the application's recovery rule — typically resuming from the
//! replicated state in the network cache, which is why no data is
//! lost.

use crate::group::{ControlGroup, Member};
use ampnet_sim::{SimDuration, SimTime};

/// Application-definable failover policy (slide 19).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailoverPolicy {
    /// Leader heartbeat period (application level).
    pub heartbeat_interval: SimDuration,
    /// Missed heartbeats before declaring the application failed —
    /// with `heartbeat_interval`, this sets the "millisecond
    /// application failure detection" latency.
    pub misses_allowed: u32,
    /// The application-definable failover period: extra grace between
    /// detection and takeover.
    pub failover_period: SimDuration,
    /// How the new leader recovers state.
    pub recovery: RecoveryRule,
}

/// Application rules of recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryRule {
    /// Resume from the replicated state in the network cache; cost is
    /// proportional to the state actively re-read (bytes / bandwidth).
    ResumeFromCache {
        /// Bytes of state re-read at takeover.
        state_bytes: u64,
        /// Effective local read bandwidth, bytes/s.
        bandwidth: f64,
    },
    /// Cold restart of the application (fixed cost).
    Restart {
        /// Application restart time.
        startup: SimDuration,
    },
}

impl Default for FailoverPolicy {
    fn default() -> Self {
        FailoverPolicy {
            heartbeat_interval: SimDuration::from_micros(250),
            misses_allowed: 4,
            failover_period: SimDuration::from_millis(1),
            recovery: RecoveryRule::ResumeFromCache {
                state_bytes: 64 * 1024,
                bandwidth: 400e6,
            },
        }
    }
}

impl FailoverPolicy {
    /// Detection latency implied by the heartbeat policy.
    pub fn detection_latency(&self) -> SimDuration {
        self.heartbeat_interval
            .saturating_mul(self.misses_allowed as u64)
    }

    /// Recovery-rule execution time.
    pub fn recovery_time(&self) -> SimDuration {
        match self.recovery {
            RecoveryRule::ResumeFromCache {
                state_bytes,
                bandwidth,
            } => SimDuration::from_secs_f64(state_bytes as f64 / bandwidth),
            RecoveryRule::Restart { startup } => startup,
        }
    }
}

/// Phases of the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailoverPhase {
    /// Leader healthy (heartbeats arriving).
    Steady,
    /// Heartbeats stopped; counting misses.
    Suspect {
        /// Instant the last heartbeat was seen.
        last_heartbeat: SimTime,
    },
    /// Failure declared; waiting out the failover period.
    Waiting {
        /// Instant failure was declared.
        declared_at: SimTime,
    },
    /// New leader applying recovery rules.
    Recovering {
        /// Instant the failure was declared.
        declared_at: SimTime,
        /// Instant takeover began.
        takeover_at: SimTime,
        /// The member that took control.
        new_leader: u8,
    },
    /// Recovery complete; new leader in control.
    Done(FailoverReport),
}

/// Timeline of a completed failover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailoverReport {
    /// The node that held control before the failure.
    pub old_leader: u8,
    /// The node that took control.
    pub new_leader: u8,
    /// Instant of the leader's actual death.
    pub failed_at: SimTime,
    /// Instant the survivors declared the failure.
    pub detected_at: SimTime,
    /// Instant the new leader assumed control.
    pub takeover_at: SimTime,
    /// Instant the application was serving again.
    pub recovered_at: SimTime,
}

impl FailoverReport {
    /// Failure → detection (the paper: milliseconds).
    pub fn detection_latency(&self) -> SimDuration {
        self.detected_at - self.failed_at
    }

    /// Failure → serving again (total outage).
    pub fn total_outage(&self) -> SimDuration {
        self.recovered_at - self.failed_at
    }
}

/// The failover engine: one per control group, evaluated identically
/// by every survivor (all inputs come from the replicated cache).
#[derive(Debug, Clone)]
pub struct FailoverEngine {
    policy: FailoverPolicy,
    phase: FailoverPhase,
    leader: Option<u8>,
    last_heartbeat: SimTime,
    failed_at: Option<SimTime>,
}

impl FailoverEngine {
    /// New engine; `leader` is the current controller.
    pub fn new(policy: FailoverPolicy, leader: Option<u8>, now: SimTime) -> Self {
        FailoverEngine {
            policy,
            phase: FailoverPhase::Steady,
            leader,
            last_heartbeat: now,
            failed_at: None,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> FailoverPhase {
        self.phase
    }

    /// Current controller.
    pub fn leader(&self) -> Option<u8> {
        self.leader
    }

    /// A leader heartbeat landed in the cache.
    pub fn on_heartbeat(&mut self, now: SimTime, from: u8) {
        if Some(from) == self.leader {
            self.last_heartbeat = now;
            if matches!(self.phase, FailoverPhase::Suspect { .. }) {
                // Transient stall recovered before declaration.
                self.phase = FailoverPhase::Steady;
            }
        }
    }

    /// Record the leader's true death time (ground truth for reports;
    /// real deployments only ever observe heartbeat silence).
    pub fn leader_died(&mut self, at: SimTime) {
        self.failed_at = Some(at);
    }

    /// Periodic evaluation; `group` supplies survivor qualification.
    /// Returns a report when a failover completes at this instant.
    pub fn poll(&mut self, now: SimTime, group: &ControlGroup) -> Option<FailoverReport> {
        match self.phase {
            FailoverPhase::Steady => {
                let silence = now.saturating_since(self.last_heartbeat);
                if silence >= self.policy.detection_latency() && self.leader.is_some() {
                    self.phase = FailoverPhase::Waiting { declared_at: now };
                }
                None
            }
            FailoverPhase::Suspect { .. } => None,
            FailoverPhase::Waiting { declared_at } => {
                if now.saturating_since(declared_at) >= self.policy.failover_period {
                    // Choose the best-qualified online survivor
                    // (excluding the dead leader).
                    let old = self.leader;
                    let candidate: Option<Member> = group
                        .members()
                        .iter()
                        .filter(|m| m.online && Some(m.node) != old)
                        .copied()
                        .max_by(|a, b| {
                            a.qualification
                                .cmp(&b.qualification)
                                .then(b.node.cmp(&a.node))
                        });
                    if let Some(new_leader) = candidate {
                        self.phase = FailoverPhase::Recovering {
                            declared_at,
                            takeover_at: now,
                            new_leader: new_leader.node,
                        };
                    }
                    // No candidate: stay Waiting until one appears.
                }
                None
            }
            FailoverPhase::Recovering {
                declared_at,
                takeover_at,
                new_leader,
            } => {
                if now.saturating_since(takeover_at) >= self.policy.recovery_time() {
                    let report = FailoverReport {
                        old_leader: self.leader.unwrap_or(new_leader),
                        new_leader,
                        failed_at: self.failed_at.unwrap_or(self.last_heartbeat),
                        detected_at: declared_at,
                        takeover_at,
                        recovered_at: now,
                    };
                    self.leader = Some(new_leader);
                    self.last_heartbeat = now;
                    self.failed_at = None;
                    self.phase = FailoverPhase::Done(report);
                    return Some(report);
                }
                None
            }
            FailoverPhase::Done(_) => {
                // Re-arm for the next failure.
                self.phase = FailoverPhase::Steady;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupId;

    fn group() -> ControlGroup {
        let mut g = ControlGroup::new(GroupId(1));
        g.join(1, 90).unwrap(); // leader
        g.join(2, 80).unwrap();
        g.join(3, 85).unwrap();
        g
    }

    fn run_to_completion(
        engine: &mut FailoverEngine,
        group: &ControlGroup,
        from: SimTime,
        step: SimDuration,
        max_steps: u32,
    ) -> Option<FailoverReport> {
        let mut now = from;
        for _ in 0..max_steps {
            if let Some(r) = engine.poll(now, group) {
                return Some(r);
            }
            now += step;
        }
        None
    }

    #[test]
    fn detection_latency_is_milliseconds() {
        let p = FailoverPolicy::default();
        let d = p.detection_latency();
        assert_eq!(d, SimDuration::from_micros(1000), "250 µs × 4 misses");
    }

    #[test]
    fn failover_elects_best_qualified_survivor() {
        let mut g = group();
        let policy = FailoverPolicy::default();
        let mut e = FailoverEngine::new(policy, Some(1), SimTime::ZERO);
        // Heartbeats until 1 ms, then leader dies.
        let mut now = SimTime::ZERO;
        for _ in 0..4 {
            e.on_heartbeat(now, 1);
            now += policy.heartbeat_interval;
        }
        e.leader_died(now);
        g.mark_offline(1);
        let r = run_to_completion(&mut e, &g, now, SimDuration::from_micros(50), 10_000)
            .expect("failover must complete");
        assert_eq!(r.old_leader, 1);
        assert_eq!(r.new_leader, 3, "85 beats 80");
        assert_eq!(e.leader(), Some(3));
        // Failure hit right after the last heartbeat, so detection
        // takes the full window minus at most one poll step.
        assert!(
            r.detection_latency()
                >= policy.detection_latency() - policy.heartbeat_interval
        );
        assert!(r.detected_at >= r.failed_at);
        assert!(r.total_outage() >= policy.failover_period);
    }

    #[test]
    fn transient_stall_does_not_fail_over() {
        let g = group();
        let policy = FailoverPolicy::default();
        let mut e = FailoverEngine::new(policy, Some(1), SimTime::ZERO);
        // Silence shorter than the detection window, then a heartbeat.
        let almost = policy.detection_latency() - SimDuration::from_micros(50);
        assert!(e.poll(SimTime::ZERO + almost, &g).is_none());
        assert_eq!(e.phase(), FailoverPhase::Steady);
        e.on_heartbeat(SimTime::ZERO + almost, 1);
        // Still steady well past the original window.
        assert!(e
            .poll(SimTime::ZERO + policy.detection_latency(), &g)
            .is_none());
        assert_eq!(e.leader(), Some(1));
    }

    #[test]
    fn failover_period_is_respected() {
        let mut g = group();
        let policy = FailoverPolicy {
            failover_period: SimDuration::from_millis(5),
            ..Default::default()
        };
        let mut e = FailoverEngine::new(policy, Some(1), SimTime::ZERO);
        e.leader_died(SimTime::ZERO);
        g.mark_offline(1);
        let r = run_to_completion(&mut e, &g, SimTime::ZERO, SimDuration::from_micros(100), 200_000)
            .unwrap();
        let gap = r.takeover_at - r.failed_at;
        assert!(
            gap >= policy.detection_latency() + policy.failover_period,
            "takeover after detection + grace, got {gap}"
        );
    }

    #[test]
    fn no_survivors_waits_for_one() {
        let mut g = group();
        g.mark_offline(1);
        g.mark_offline(2);
        g.mark_offline(3);
        let policy = FailoverPolicy::default();
        let mut e = FailoverEngine::new(policy, Some(1), SimTime::ZERO);
        e.leader_died(SimTime::ZERO);
        assert!(
            run_to_completion(&mut e, &g, SimTime::ZERO, SimDuration::from_micros(100), 50_000)
                .is_none()
        );
        // A survivor reappears: failover proceeds.
        g.mark_online(2);
        let r = run_to_completion(
            &mut e,
            &g,
            SimTime(10_000_000),
            SimDuration::from_micros(100),
            50_000,
        )
        .unwrap();
        assert_eq!(r.new_leader, 2);
    }

    #[test]
    fn recovery_rules_cost_model() {
        let resume = FailoverPolicy {
            recovery: RecoveryRule::ResumeFromCache {
                state_bytes: 400_000_000,
                bandwidth: 400e6,
            },
            ..Default::default()
        };
        assert_eq!(resume.recovery_time(), SimDuration::from_millis(1000));
        let restart = FailoverPolicy {
            recovery: RecoveryRule::Restart {
                startup: SimDuration::from_millis(30),
            },
            ..Default::default()
        };
        assert_eq!(restart.recovery_time(), SimDuration::from_millis(30));
    }

    #[test]
    fn engine_rearms_after_done() {
        let mut g = group();
        let policy = FailoverPolicy::default();
        let mut e = FailoverEngine::new(policy, Some(1), SimTime::ZERO);
        e.leader_died(SimTime::ZERO);
        g.mark_offline(1);
        let r1 =
            run_to_completion(&mut e, &g, SimTime::ZERO, SimDuration::from_micros(100), 100_000)
                .unwrap();
        assert_eq!(r1.new_leader, 3);
        // Arm again: leader 3 dies later.
        let t2 = r1.recovered_at + SimDuration::from_millis(10);
        e.poll(t2, &g); // Done → Steady
        e.on_heartbeat(t2, 3);
        g.mark_offline(3);
        e.leader_died(t2);
        let r2 = run_to_completion(&mut e, &g, t2, SimDuration::from_micros(100), 100_000)
            .unwrap();
        assert_eq!(r2.old_leader, 3);
        assert_eq!(r2.new_leader, 2);
    }

    #[test]
    fn zero_misses_allowed_is_a_hair_trigger() {
        let mut g = group();
        let policy = FailoverPolicy {
            misses_allowed: 0,
            ..Default::default()
        };
        assert_eq!(policy.detection_latency(), SimDuration::ZERO);
        let mut e = FailoverEngine::new(policy, Some(1), SimTime::ZERO);
        // With a zero detection window, the very first poll declares
        // the leader failed — even a freshly heartbeating one. That is
        // the documented consequence of misses_allowed = 0: any
        // silence at all (including none) exceeds the window.
        e.on_heartbeat(SimTime::ZERO, 1);
        e.leader_died(SimTime::ZERO);
        g.mark_offline(1);
        assert!(e.poll(SimTime::ZERO, &g).is_none(), "declares, not completes");
        assert!(matches!(e.phase(), FailoverPhase::Waiting { .. }));
        let r = run_to_completion(&mut e, &g, SimTime::ZERO, SimDuration::from_micros(50), 100_000)
            .expect("failover completes");
        assert_eq!(r.detected_at, SimTime::ZERO, "declared at the first poll");
        // All remaining outage is grace + recovery, none of it detection.
        assert_eq!(r.detection_latency(), SimDuration::ZERO);
        assert!(r.takeover_at - r.detected_at >= policy.failover_period);
    }

    #[test]
    fn restart_recovery_rule_times_the_takeover() {
        let mut g = group();
        let startup = SimDuration::from_millis(7);
        let policy = FailoverPolicy {
            recovery: RecoveryRule::Restart { startup },
            ..Default::default()
        };
        let mut e = FailoverEngine::new(policy, Some(1), SimTime::ZERO);
        e.leader_died(SimTime::ZERO);
        g.mark_offline(1);
        let step = SimDuration::from_micros(50);
        let r = run_to_completion(&mut e, &g, SimTime::ZERO, step, 1_000_000)
            .expect("failover completes");
        let recovering = r.recovered_at - r.takeover_at;
        assert!(
            recovering >= startup && recovering < startup + step + step,
            "restart rule must gate recovery: {recovering} vs {startup}"
        );
        assert_eq!(e.leader(), Some(3));
    }

    #[test]
    fn candidate_dying_mid_grace_period_falls_through() {
        let mut g = group();
        let policy = FailoverPolicy {
            failover_period: SimDuration::from_millis(5),
            ..Default::default()
        };
        let mut e = FailoverEngine::new(policy, Some(1), SimTime::ZERO);
        e.leader_died(SimTime::ZERO);
        g.mark_offline(1);
        // Poll until the failure is declared, then — mid-grace — the
        // best-qualified heir (node 3, qualification 85) dies too.
        let mut now = SimTime::ZERO;
        let step = SimDuration::from_micros(100);
        while !matches!(e.phase(), FailoverPhase::Waiting { .. }) {
            assert!(e.poll(now, &g).is_none());
            now += step;
        }
        let declared = now;
        g.mark_offline(3);
        e.poll(declared + SimDuration::from_millis(1), &g); // still waiting
        assert!(matches!(e.phase(), FailoverPhase::Waiting { .. }));
        let r = run_to_completion(&mut e, &g, declared + SimDuration::from_millis(1), step, 200_000)
            .expect("failover still completes");
        // The grace period was not restarted by the second death, and
        // the takeover skipped the dead heir.
        assert_eq!(r.new_leader, 2, "fell through to the last survivor");
        assert!(r.takeover_at - r.detected_at >= policy.failover_period);
        assert_eq!(e.leader(), Some(2));
    }
}
