//! The scripted-run harness: what [`crate::Scenario::run`] and the
//! `ampnet-load` engine share — the booted [`Cluster`], the [`Ledger`],
//! the crash list with its doom cursor and the first-trip-only
//! invariant runner. The loop is the driver's: `run_for` → its own
//! drain → `doom_elapsed` → `check`. The harness imposes no order: event
//! sequence numbers break same-instant ties, so each driver calls
//! [`Harness::apply`] exactly where its faults must enter the queue
//! (chaos after starting its apps, load before its semaphore storm).

use crate::engine::{apply_fault_schedule, Violation};
use crate::invariant::{CheckCtx, Invariant, Phase};
use crate::ledger::Ledger;
use crate::scenario::FaultEvent;
use ampnet_core::{Cluster, FailoverPolicy, SimDuration, SimTime};
use std::rc::Rc;

/// A booted cluster under a fault schedule, a ledger and an invariant list.
pub struct Harness {
    /// The cluster under test; drivers inject traffic into it directly.
    pub cluster: Cluster,
    /// Exactly-once accounting of the driver's tagged traffic.
    pub ledger: Ledger,
    /// Failover policy of the counter app, when the driver started one
    /// (handed to the invariants through [`CheckCtx::policy`]).
    pub policy: Option<FailoverPolicy>,
    /// Scheduled node crashes, time-sorted; `..next_crash` are doomed.
    crashes: Vec<(SimTime, u8)>,
    next_crash: usize,
    invariants: Vec<Rc<dyn Invariant>>,
    violations: Vec<Violation>,
}

impl Harness {
    /// Wrap a freshly built cluster (tracing and telemetry are the
    /// driver's choice, made before this call).
    pub fn new(cluster: Cluster, invariants: Vec<Rc<dyn Invariant>>) -> Self {
        Harness {
            cluster,
            ledger: Ledger::default(),
            policy: None,
            crashes: vec![],
            next_crash: 0,
            invariants,
            violations: vec![],
        }
    }

    /// Schedule `faults` (offsets relative to *now*) through
    /// [`apply_fault_schedule`] and remember their node crashes, in
    /// time order whatever order the schedule lists them in.
    pub fn apply(&mut self, faults: &[FaultEvent]) {
        self.crashes.extend(apply_fault_schedule(&mut self.cluster, faults));
        self.crashes[self.next_crash..].sort_by_key(|&(at, _)| at);
    }

    /// Advance the cluster by `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        self.cluster.run_for(d);
    }

    /// Drain every inbox into the ledger (datagrams that are not
    /// ledger-tagged are ignored by its decoder).
    pub fn drain(&mut self) {
        for node in 0..self.cluster.n_nodes() as u8 {
            while let Some(d) = self.cluster.pop_message(node) {
                self.ledger.drained(node, &d.payload);
            }
        }
    }

    /// Doom the pending traffic of every node whose crash instant has
    /// passed. Call after draining, so deliveries that beat the crash
    /// count as delivered.
    pub fn doom_elapsed(&mut self) {
        let now = self.cluster.now();
        while let Some(&(at, node)) = self.crashes.get(self.next_crash) {
            if at > now {
                break;
            }
            self.ledger.doom_endpoint(node);
            self.next_crash += 1;
        }
    }

    /// Run every invariant that has not tripped yet; only the first
    /// trip of each is recorded, across every phase of the run.
    pub fn check(&mut self, phase: Phase, step: u32) {
        let now = self.cluster.now();
        let ctx = CheckCtx {
            phase,
            step,
            now,
            cluster: &self.cluster,
            ledger: &self.ledger,
            policy: self.policy,
        };
        for inv in &self.invariants {
            let invariant = inv.name();
            if self.violations.iter().any(|v| v.invariant == invariant) {
                continue;
            }
            if let Err(detail) = inv.check(&ctx) {
                self.violations.push(Violation { invariant, at: now, step, detail });
            }
        }
    }

    /// The cluster refused the driver's own traffic, so the run cannot
    /// pass: reported once, as a `traffic-accepted` violation.
    pub(crate) fn refused(&mut self, step: u32, detail: String) {
        if !self.violations.iter().any(|v| v.invariant == "traffic-accepted") {
            let (invariant, at) = ("traffic-accepted", self.cluster.now());
            self.violations.push(Violation { invariant, at, step, detail });
        }
    }

    /// Violations so far, in trip order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Names of the invariants this run checks, in check order.
    pub fn invariant_names(&self) -> Vec<&'static str> {
        self.invariants.iter().map(|inv| inv.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FaultOp;
    use ampnet_core::ClusterConfig;

    struct AlwaysFails(&'static str);
    impl Invariant for AlwaysFails {
        fn name(&self) -> &'static str {
            self.0
        }
        fn check(&self, _: &CheckCtx<'_>) -> Result<(), String> {
            Err("synthetic".into())
        }
    }

    /// The later crash is listed first: a cursor over the list as given
    /// would wait for it and doom node 2's traffic 2 ms late. And an
    /// invariant that fails at every check is reported once, whether
    /// the checks are `Step` or `End`.
    #[test]
    fn dooms_unsorted_crashes_in_time_order_and_reports_each_invariant_once() {
        let ms = SimDuration::from_millis;
        let mut h = Harness::new(
            Cluster::new(ClusterConfig::small(5).with_seed(5)),
            vec![Rc::new(AlwaysFails("a")), Rc::new(AlwaysFails("b"))],
        );
        h.run_for(ms(5));
        h.apply(&[
            FaultEvent { at: ms(3), op: FaultOp::CrashNode(4) },
            FaultEvent { at: ms(1), op: FaultOp::CrashNode(2) },
        ]);
        let now = h.cluster.now();
        h.ledger.send(0, 2, now);
        h.ledger.send(0, 4, now);

        h.run_for(ms(2));
        h.doom_elapsed();
        assert_eq!(h.ledger.doomed_total, 1, "node 2 died at +1 ms");
        assert_eq!(h.ledger.outstanding(), 1, "node 4 is still alive");
        h.check(Phase::Step, 0);

        h.run_for(ms(2));
        h.doom_elapsed();
        assert_eq!(h.ledger.doomed_total, 2);
        h.check(Phase::Step, 1);
        h.check(Phase::End, 2);

        let tripped: Vec<_> = h.violations().iter().map(|v| (v.invariant, v.step)).collect();
        assert_eq!(tripped, [("a", 0), ("b", 0)]);
    }
}
