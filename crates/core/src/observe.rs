//! Deterministic observation journal.
//!
//! External harnesses (the chaos engine in `ampnet-chaos`, soak tests)
//! need to see *when* the cluster reacted to an injected fault without
//! reaching into its internals or installing callbacks — callbacks
//! would let observer code perturb the simulation. The cluster instead
//! appends an [`ObservedEvent`] to a journal at every externally
//! meaningful transition; the journal is part of the deterministic
//! simulation state, so two runs with the same config and seed produce
//! byte-identical journals.
//!
//! The journal is the cluster's one milestone record. The human-readable
//! milestone [`Trace`] is a rendering of it (`ObservedEvent::render`
//! is the only place that knows the line format), and the lists of
//! rejected joins, spare faults and certifications are filters over it.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

use crate::cluster::RosterReason;
use crate::diagnostics::Certification;
use ampnet_dk::{AssimilationFailure, GroupId};
use ampnet_sim::{Fnv64, SimDuration, SimTime};
use ampnet_topo::montecarlo::Component;

/// One externally visible cluster transition.
#[derive(Debug, Clone, PartialEq)]
pub enum ObservedEvent {
    /// A component failure was applied to the plant.
    FailureInjected(Component),
    /// The failed component was spare: the ring is unaffected.
    SpareFault(Component),
    /// The failure left no viable ring.
    NoSurvivors(Component),
    /// A failure-triggered roster episode began (ring down until
    /// `RingRestored`). Boot, join and repair episodes emit none.
    RosterStarted {
        /// Episode epoch.
        epoch: u64,
        /// The failed component that took the ring down.
        cause: Component,
        /// When the episode will commit its ring.
        eta: SimTime,
    },
    /// A roster episode committed a new ring.
    RingRestored {
        /// Episode epoch.
        epoch: u64,
        /// Members in the committed ring.
        ring_len: usize,
        /// Why the episode ran.
        reason: RosterReason,
        /// Recovery time in ring tours.
        tours: f64,
    },
    /// A switch or fiber was returned to service.
    RepairApplied(Component),
    /// A joining node failed assimilation.
    JoinRejected(u8, AssimilationFailure),
    /// An assimilated node came online (roster episode follows).
    NodeOnline(u8),
    /// A phy-level bit-error burst hit a node's receive path.
    ErrorBurst {
        /// Victim node.
        node: u8,
        /// Bit errors injected.
        errors: u32,
        /// 8b/10b / disparity violations the receiver detected.
        detected: u32,
    },
    /// The receiver escalated a detected burst to a link failure
    /// (loss-of-sync → rostering, as on real hardware).
    ErrorBurstEscalated {
        /// Victim node.
        node: u8,
        /// The ring link declared dead.
        link: Component,
    },
    /// A burst arrived while the ring was already down, the node was
    /// outside the ring, or no error was detectable; nothing happened.
    ErrorBurstAbsorbed {
        /// Victim node.
        node: u8,
    },
    /// The background sweep found a failed spare component it had not
    /// reported since the component's last repair.
    SweepFoundSpare(Component),
    /// A post-rostering certification sweep finished.
    Certified(Certification),
    /// A failover engine's node took control of its group.
    FailoverTakeover {
        /// The new leader.
        node: u8,
        /// The group taken over.
        group: GroupId,
        /// Leader death to service resumed.
        outage: SimDuration,
    },
}

/// Severity of a rendered milestone line. The discriminants are folded
/// into [`Trace::digest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Level {
    /// Milestones (roster phases, repairs, certifications).
    Info = 1,
    /// Anomalies (failures, bursts, takeovers).
    Warn = 2,
}

impl Level {
    fn label(self) -> &'static str {
        match self {
            Level::Info => "INFO",
            Level::Warn => "WARN",
        }
    }
}

impl ObservedEvent {
    /// The milestone line this event prints, as `(level, subsystem,
    /// message)`; `None` for events the trace does not show.
    pub(crate) fn render(&self) -> Option<(Level, &'static str, String)> {
        use ObservedEvent as E;
        Some(match self {
            E::ErrorBurst { node, errors, detected } => (
                Level::Warn,
                "phy",
                format!("node {node}: bit-error burst, {errors} injected, {detected} violations"),
            ),
            E::ErrorBurstEscalated { node, link } => (
                Level::Warn,
                "phy",
                format!("node {node}: burst escalated, {link:?} lost sync"),
            ),
            E::RosterStarted { epoch, cause, eta } => (
                Level::Warn,
                "roster",
                format!("{cause:?} failed; epoch {epoch} rostering, ETA {eta}"),
            ),
            E::SpareFault(c) => (
                Level::Info,
                "roster",
                format!("{c:?} failed but is spare; ring unaffected"),
            ),
            E::NoSurvivors(c) => (Level::Warn, "roster", format!("{c:?} failed; no survivors")),
            E::RingRestored { epoch, ring_len, reason, tours } => (
                Level::Info,
                "roster",
                format!("epoch {epoch} live: {ring_len} nodes in {tours:.2} ring tours ({reason:?})"),
            ),
            E::RepairApplied(c) => (Level::Info, "repair", format!("{c:?} repaired")),
            E::SweepFoundSpare(c) => (
                Level::Warn,
                "diag",
                format!("background sweep found failed spare {c:?}"),
            ),
            E::Certified(cert) => (
                Level::Info,
                "diag",
                format!(
                    "epoch {} certified: echo {}, replicas {}",
                    cert.epoch,
                    if cert.echo_completed { "ok" } else { "FAILED" },
                    if cert.crc_uniform { "uniform" } else { "DIVERGED" }
                ),
            ),
            E::FailoverTakeover { node, group, outage } => (
                Level::Warn,
                "failover",
                format!("node {node} takes control of group {group:?} (outage {outage})"),
            ),
            E::FailureInjected(_)
            | E::JoinRejected(..)
            | E::NodeOnline(_)
            | E::ErrorBurstAbsorbed { .. } => return None,
        })
    }
}

/// The milestone trace: the journal from the instant tracing was
/// enabled, rendered one line per milestone. Off by default; a cluster
/// that never enabled it renders nothing.
#[derive(Debug, Clone, Copy)]
pub struct Trace<'a> {
    journal: &'a [(SimTime, ObservedEvent)],
    capacity: usize,
}

impl<'a> Trace<'a> {
    pub(crate) fn new(journal: &'a [(SimTime, ObservedEvent)], capacity: usize) -> Self {
        Trace { journal, capacity }
    }

    fn lines(&self) -> impl Iterator<Item = (SimTime, Level, &'static str, String)> + 'a {
        self.journal
            .iter()
            .filter_map(|(at, ev)| ev.render().map(|(level, sub, msg)| (*at, level, sub, msg)))
    }

    /// FNV-64 over every line (time, level, subsystem, message), in
    /// journal order. Independent of the capacity bound. Used by the
    /// chaos engine as a deterministic replay fingerprint.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for (at, level, subsystem, message) in self.lines() {
            h.fold_u64(at.0)
                .fold_u8(level as u8)
                .fold(subsystem.as_bytes())
                .fold(message.as_bytes());
        }
        h.finish()
    }

    /// The last `capacity` lines, oldest first, one per line.
    pub fn dump(&self) -> String {
        let lines: Vec<String> = self
            .lines()
            .map(|(at, level, subsystem, message)| {
                format!("[{:>12}] {} {:<8} {}\n", at.to_string(), level.label(), subsystem, message)
            })
            .collect();
        lines[lines.len().saturating_sub(self.capacity)..].concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig};
    use ampnet_topo::SwitchId;

    #[test]
    fn the_trace_is_a_rendering_of_the_journal() {
        let repairs = |shift: u64, first: u8| -> Vec<(SimTime, ObservedEvent)> {
            (0..10u8)
                .map(|i| {
                    let c = Component::Switch(SwitchId(first + i));
                    (SimTime(u64::from(i) + shift), ObservedEvent::RepairApplied(c))
                })
                .collect()
        };
        let base = repairs(0, 0);
        let later = repairs(1, 0);
        let other = repairs(0, 1);
        let mut quiet_mixed = base.clone();
        quiet_mixed.insert(3, (SimTime(2), ObservedEvent::NodeOnline(4)));

        // (case, a, b, digests equal)
        let cases = [
            ("capacity bound", Trace::new(&base, 2), Trace::new(&base, 100), true),
            ("nothing retained", Trace::new(&base, 0), Trace::new(&base, 100), true),
            ("silent events", Trace::new(&quiet_mixed, 10), Trace::new(&base, 10), true),
            ("time", Trace::new(&later, 10), Trace::new(&base, 10), false),
            ("content", Trace::new(&other, 10), Trace::new(&base, 10), false),
        ];
        for (case, a, b, equal) in cases {
            assert_eq!(a.digest() == b.digest(), equal, "{case}");
        }

        // The dump keeps the last `capacity` lines.
        for capacity in [0, 3, 10, 100] {
            let dump = Trace::new(&base, capacity).dump();
            let kept = capacity.min(base.len());
            assert_eq!(dump.lines().count(), kept, "capacity {capacity}");
            if kept > 0 {
                let first = base.len() - kept;
                assert!(
                    dump.starts_with(&format!("[{:>12}] INFO repair", SimTime(first as u64).to_string())),
                    "{dump}"
                );
                assert!(dump.ends_with("Switch(SwitchId(9)) repaired\n"), "{dump}");
            }
        }

        // A cluster that never enabled the trace journals but renders
        // nothing.
        let mut c = Cluster::new(ClusterConfig::small(3).with_seed(61));
        c.run_for(SimDuration::from_millis(5));
        assert!(c.observations().iter().any(|(_, ev)| ev.render().is_some()));
        assert_eq!(c.trace().dump(), "");
        assert_eq!(c.trace().digest(), Fnv64::new().finish());
    }
}
