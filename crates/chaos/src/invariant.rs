//! The invariant catalogue: pluggable checkers for the paper's
//! guarantees, evaluated from outside the stack.
//!
//! Each [`Invariant`] sees a read-only [`CheckCtx`] — the cluster, the
//! external delivery [`Ledger`] and the current phase — and returns
//! `Err(detail)` on violation. Checkers for traffic that is not
//! running in the scenario pass vacuously, so the standard catalogue
//! can always be attached wholesale.

use crate::ledger::Ledger;
use ampnet_core::{Cluster, FailoverPolicy, SimDuration, SimTime};
use std::rc::Rc;

/// When a check runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// After a traffic/fault step (cluster may be mid-recovery).
    Step,
    /// After the settle period: everything replayable has replayed.
    End,
}

/// Read-only view handed to every invariant check.
pub struct CheckCtx<'a> {
    /// Step or end-of-run.
    pub phase: Phase,
    /// Zero-based step index (equals the step count at [`Phase::End`]).
    pub step: u32,
    /// Simulated now.
    pub now: SimTime,
    /// The cluster under test.
    pub cluster: &'a Cluster,
    /// The external delivery ledger.
    pub ledger: &'a Ledger,
    /// Failover policy of the counter app, when one is running.
    pub policy: Option<FailoverPolicy>,
}

/// A cluster-wide invariant, checked after every step and at the end.
pub trait Invariant {
    /// Stable name used for violation reporting and deduplication.
    fn name(&self) -> &'static str;
    /// Return `Err(detail)` if the invariant is violated.
    fn check(&self, ctx: &CheckCtx<'_>) -> Result<(), String>;
}

/// The standard catalogue, in check order: ring-drop freedom, lossless
/// delivery, no duplicates, seqlock coherence, roster reconvergence
/// bound, failover-within-policy, mutual exclusion and end-of-run state
/// conservation. Checkers for traffic that is not running pass
/// vacuously, so every driver attaches the list wholesale.
pub fn standard_invariants() -> Vec<Rc<dyn Invariant>> {
    vec![
        Rc::new(RingDrops),
        Rc::new(LosslessDelivery),
        Rc::new(NoDuplicates),
        Rc::new(SeqlockCoherence),
        Rc::new(ReconvergenceBound::default()),
        Rc::new(FailoverWithinPolicy::default()),
        Rc::new(MutualExclusion),
        Rc::new(StateConservation),
    ]
}

/// The register-insertion MAC never drops a packet, under any fault
/// schedule (paper slide 8: flow control by insertion, not discard).
pub struct RingDrops;

impl Invariant for RingDrops {
    fn name(&self) -> &'static str {
        "ring-drops"
    }

    fn check(&self, ctx: &CheckCtx<'_>) -> Result<(), String> {
        let drops = ctx.cluster.total_drops();
        if drops == 0 {
            Ok(())
        } else {
            Err(format!("MAC would have dropped {drops} packet(s)"))
        }
    }
}

/// Every tagged message between endpoints that stayed alive is
/// delivered by the end of the run — smart data recovery replays
/// everything outstanding across roster episodes (slides 16–18).
pub struct LosslessDelivery;

impl Invariant for LosslessDelivery {
    fn name(&self) -> &'static str {
        "lossless-delivery"
    }

    fn check(&self, ctx: &CheckCtx<'_>) -> Result<(), String> {
        // Mid-run, messages are legitimately in flight (or parked
        // behind a roster episode awaiting replay); only the end of
        // the run is binding.
        if ctx.phase != Phase::End {
            return Ok(());
        }
        let missing = ctx.ledger.outstanding();
        if missing == 0 {
            return Ok(());
        }
        let sample: Vec<String> = ctx
            .ledger
            .outstanding_sample(4)
            .into_iter()
            .map(|(id, src, dst, at)| format!("#{id} {src}->{dst} sent@{}ns", at.0))
            .collect();
        Err(format!(
            "{missing} live-endpoint message(s) never delivered (e.g. {})",
            sample.join(", ")
        ))
    }
}

/// No tagged message is ever delivered twice or at the wrong node —
/// failover replay must be deduplicated by the receiver.
pub struct NoDuplicates;

impl Invariant for NoDuplicates {
    fn name(&self) -> &'static str {
        "no-duplicates"
    }

    fn check(&self, ctx: &CheckCtx<'_>) -> Result<(), String> {
        let l = ctx.ledger;
        if !l.duplicates.is_empty() {
            return Err(format!(
                "{} duplicate delivery(ies), first tag #{}",
                l.duplicates.len(),
                l.duplicates[0]
            ));
        }
        if !l.wrong_node.is_empty() {
            return Err(format!(
                "{} misdelivered message(s), first tag #{}",
                l.wrong_node.len(),
                l.wrong_node[0]
            ));
        }
        Ok(())
    }
}

/// Guarded seqlock readers never observe a torn record (slide 9).
/// Vacuous when no seqlock probe is running.
pub struct SeqlockCoherence;

impl Invariant for SeqlockCoherence {
    fn name(&self) -> &'static str {
        "seqlock-coherence"
    }

    fn check(&self, ctx: &CheckCtx<'_>) -> Result<(), String> {
        match ctx.cluster.seq_report() {
            Some(r) if r.torn > 0 => Err(format!(
                "{} torn snapshot(s) escaped the guard ({} writes, {} clean reads)",
                r.torn, r.writes, r.reads_ok
            )),
            _ => Ok(()),
        }
    }
}

/// Every completed roster episode reconverges within the paper's
/// bound: detection plus two protocol tours, expressed in ring-tour
/// units of the *new* ring.
pub struct ReconvergenceBound {
    /// Maximum allowed recovery, in ring tours (detection included).
    pub max_tours: f64,
}

impl Default for ReconvergenceBound {
    /// ~2 protocol tours plus detection and scheduling margin.
    fn default() -> Self {
        ReconvergenceBound { max_tours: 3.5 }
    }
}

impl Invariant for ReconvergenceBound {
    fn name(&self) -> &'static str {
        "reconvergence-bound"
    }

    fn check(&self, ctx: &CheckCtx<'_>) -> Result<(), String> {
        for (i, ev) in ctx.cluster.roster_history().iter().enumerate() {
            let tours = ev.outcome.recovery_in_tours();
            if tours.is_finite() && tours > self.max_tours {
                return Err(format!(
                    "roster episode {i} ({:?}) took {tours:.2} tours (bound {})",
                    ev.reason, self.max_tours
                ));
            }
        }
        Ok(())
    }
}

/// Application failover happens within the bounds of its
/// [`FailoverPolicy`]: no premature declaration or takeover, and
/// detection/takeover/recovery each complete within the policy's
/// latency plus polling granularity. Vacuous without a counter app.
pub struct FailoverWithinPolicy {
    /// Extra scheduling slack allowed on each upper bound.
    pub slack: SimDuration,
}

impl Default for FailoverWithinPolicy {
    /// One millisecond of slack — generous next to the policy's own
    /// quarter-millisecond heartbeat default.
    fn default() -> Self {
        FailoverWithinPolicy { slack: SimDuration::from_millis(1) }
    }
}

impl Invariant for FailoverWithinPolicy {
    fn name(&self) -> &'static str {
        "failover-within-policy"
    }

    fn check(&self, ctx: &CheckCtx<'_>) -> Result<(), String> {
        let Some(report) = ctx.cluster.counter_report() else {
            return Ok(());
        };
        let Some(policy) = ctx.policy else {
            return Ok(());
        };
        let hb = policy.heartbeat_interval;
        for (i, resume) in report.resumes.iter().enumerate() {
            let r = &resume.report;
            if r.detected_at < r.failed_at {
                return Err(format!("failover {i}: detected before the leader died"));
            }
            // Silence accrues from the last heartbeat (≤ failed_at)
            // and is sampled at heartbeat granularity, so the true
            // detection latency may straddle the policy figure by up
            // to one interval either way.
            let det = r.detection_latency();
            let det_min = policy.detection_latency().saturating_sub(hb);
            let det_max = policy.detection_latency() + hb + hb + self.slack;
            if det < det_min {
                return Err(format!(
                    "failover {i}: declared after {}ns silence, policy requires {}ns",
                    det.0,
                    policy.detection_latency().0
                ));
            }
            if det > det_max {
                return Err(format!(
                    "failover {i}: detection took {}ns, bound {}ns",
                    det.0, det_max.0
                ));
            }
            // The failover period is a hard grace both ways: takeover
            // never before it elapses, and not much after.
            let grace = r.takeover_at.saturating_since(r.detected_at);
            if grace < policy.failover_period {
                return Err(format!(
                    "failover {i}: takeover after {}ns grace, policy requires {}ns",
                    grace.0, policy.failover_period.0
                ));
            }
            if grace > policy.failover_period + hb + self.slack {
                return Err(format!(
                    "failover {i}: takeover took {}ns past detection, bound {}ns",
                    grace.0,
                    (policy.failover_period + hb + self.slack).0
                ));
            }
            let recov = r.recovered_at.saturating_since(r.takeover_at);
            if r.recovered_at < r.takeover_at
                || recov > policy.recovery_time() + hb + self.slack
            {
                return Err(format!(
                    "failover {i}: recovery took {}ns, rule allows {}ns",
                    recov.0,
                    policy.recovery_time().0
                ));
            }
        }
        Ok(())
    }
}

/// The D64 network semaphore never admits two holders (slide 10).
/// Vacuous when no semaphore stress is running.
pub struct MutualExclusion;

impl Invariant for MutualExclusion {
    fn name(&self) -> &'static str {
        "mutual-exclusion"
    }

    fn check(&self, ctx: &CheckCtx<'_>) -> Result<(), String> {
        match ctx.cluster.sem_report() {
            Some(r) if r.violations > 0 => Err(format!(
                "{} mutual-exclusion violation(s) across {} acquisitions",
                r.violations, r.acquisitions
            )),
            _ => Ok(()),
        }
    }
}

/// End-of-run conservation: all online cache replicas converged, and
/// the counter app lost no committed increment across any failover
/// ("no loss of data", slide 19).
pub struct StateConservation;

impl Invariant for StateConservation {
    fn name(&self) -> &'static str {
        "state-conservation"
    }

    fn check(&self, ctx: &CheckCtx<'_>) -> Result<(), String> {
        if ctx.phase != Phase::End {
            return Ok(());
        }
        if !ctx.cluster.caches_converged() {
            return Err("online cache replicas diverge after settle".into());
        }
        if let Some(report) = ctx.cluster.counter_report() {
            for (i, resume) in report.resumes.iter().enumerate() {
                if resume.lost_committed > 0 {
                    return Err(format!(
                        "failover {i}: {} committed increment(s) lost (resumed at {})",
                        resume.lost_committed, resume.resume_value
                    ));
                }
            }
            for &(node, value) in &report.final_values {
                if value < report.committed {
                    return Err(format!(
                        "node {node} ended at counter {value}, but {} was committed",
                        report.committed
                    ));
                }
            }
        }
        Ok(())
    }
}
