//! The flight recorder: a bounded, preallocated ring of the last N
//! plane events, stamped with simulated time.
//!
//! Where the metrics registry answers "how many / how long", the
//! recorder answers "what happened just before it went wrong". It
//! keeps the most recent N events — PHY fault bursts, MAC insert/strip
//! decisions, roster transitions, seqlock retries, semaphore grants —
//! and can render them as one correlated timeline. The chaos engine
//! dumps this next to the shrunk fault schedule whenever an invariant
//! trips.
//!
//! This module is the event vocabulary and the timeline rendering; the
//! ring itself is `FlightRing` in `cells.rs`, fully allocated up
//! front and overwritten in place, so the hot path never allocates
//! regardless of event volume.

use crate::cells::FlightRing;
use crate::metric::Plane;
use crate::registry::GLOBAL;

/// What a flight event describes. The two payload words `a`/`b` are
/// kind-specific (documented per variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlightKind {
    /// Empty slot (never emitted once the ring has wrapped).
    #[default]
    Empty,
    /// PHY error burst injected: `a` = bit errors, `b` = violations detected.
    PhyBurst,
    /// MAC inserted an own frame: `a` = destination, `b` = wire bytes.
    MacInsert,
    /// MAC delivered a frame to the host: `a` = source, `b` = payload bytes.
    MacDeliver,
    /// MAC stripped an own frame after a full tour: `a` = wire bytes.
    MacStrip,
    /// Roster episode started (ring down): `a` = outgoing epoch.
    RosterDown,
    /// Roster episode completed: `a` = new epoch, `b` = ring size.
    RosterUp,
    /// Stale-epoch frame released by transport: `a` = frame epoch.
    StaleFrame,
    /// Smart data recovery replayed traffic: `a` = broadcasts, `b` = unicasts.
    Replay,
    /// Seqlock reader observed a writer mid-publish: `a` = region, `b` = offset.
    SeqlockBusy,
    /// Network semaphore granted: `a` = semaphore id, `b` = acquire latency ns.
    SemAcquire,
    /// Join attempt rejected by assimilation rules: `a` = joining node.
    JoinRejected,
    /// Node brought online into the roster: `a` = node id.
    NodeOnline,
}

impl FlightKind {
    /// Every kind in declaration order, so `ALL[k as usize] == k`: how
    /// a flight event's packed kind code is read back. A new variant
    /// goes at the end of both lists.
    pub(crate) const ALL: [FlightKind; 13] = [
        FlightKind::Empty,
        FlightKind::PhyBurst,
        FlightKind::MacInsert,
        FlightKind::MacDeliver,
        FlightKind::MacStrip,
        FlightKind::RosterDown,
        FlightKind::RosterUp,
        FlightKind::StaleFrame,
        FlightKind::Replay,
        FlightKind::SeqlockBusy,
        FlightKind::SemAcquire,
        FlightKind::JoinRejected,
        FlightKind::NodeOnline,
    ];
}

/// One entry in the flight-recorder ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Simulated time in nanoseconds.
    pub at_ns: u64,
    /// Node the event happened at ([`GLOBAL`] for cluster-wide events).
    pub node: u8,
    /// Plane the event belongs to.
    pub plane: Plane,
    /// Event kind.
    pub kind: FlightKind,
    /// First kind-specific payload word.
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
}

impl Default for FlightEvent {
    fn default() -> Self {
        FlightEvent {
            at_ns: 0,
            node: GLOBAL,
            plane: Plane::Phy,
            kind: FlightKind::Empty,
            a: 0,
            b: 0,
        }
    }
}

impl FlightEvent {
    fn describe(&self) -> String {
        match self.kind {
            FlightKind::Empty => "-".into(),
            FlightKind::PhyBurst => {
                format!("phy burst: {} bit error(s), {} violation(s)", self.a, self.b)
            }
            FlightKind::MacInsert => {
                format!("insert -> node {} ({} wire bytes)", self.a, self.b)
            }
            FlightKind::MacDeliver => {
                format!("deliver <- node {} ({} payload bytes)", self.a, self.b)
            }
            FlightKind::MacStrip => format!("strip own frame ({} wire bytes)", self.a),
            FlightKind::RosterDown => format!("ring down, leaving epoch {}", self.a),
            FlightKind::RosterUp => {
                format!("ring up: epoch {}, {} node(s)", self.a, self.b)
            }
            FlightKind::StaleFrame => format!("released stale frame (epoch {})", self.a),
            FlightKind::Replay => {
                format!("replayed {} broadcast(s), {} unicast(s)", self.a, self.b)
            }
            FlightKind::SeqlockBusy => {
                format!("seqlock busy at region {} offset {}", self.a, self.b)
            }
            FlightKind::SemAcquire => {
                format!("semaphore {} acquired after {} ns", self.a, self.b)
            }
            FlightKind::JoinRejected => format!("join rejected for node {}", self.a),
            FlightKind::NodeOnline => format!("node {} online", self.a),
        }
    }
}

/// Render the ring's retained window as a correlated timeline, oldest
/// first, one line per event.
pub(crate) fn dump(ring: &FlightRing) -> String {
    let mut out = format!(
        "flight recorder: {} event(s) retained, {} dropped to wraparound\n",
        ring.len(),
        ring.recorded() - ring.len() as u64
    );
    for ev in ring.events() {
        let node = if ev.node == GLOBAL {
            "  -".to_string()
        } else {
            format!("{:3}", ev.node)
        };
        out.push_str(&format!(
            "[{:>12} ns] node {} {:<10} {}\n",
            ev.at_ns,
            node,
            ev.plane.as_str(),
            ev.describe()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ns: u64, a: u64) -> FlightEvent {
        FlightEvent {
            at_ns,
            node: 1,
            plane: Plane::Mac,
            kind: FlightKind::MacInsert,
            a,
            b: 0,
        }
    }

    /// The ring's round-trip test (`cells.rs`) proves `ALL` decodes
    /// what it lists; this proves it lists everything. Exhaustive on
    /// purpose: a new variant stops this compiling until it is appended
    /// to `ALL` and named here.
    #[test]
    fn code_tables_name_every_variant() {
        for kind in FlightKind::ALL {
            use FlightKind::*;
            match kind {
                Empty | PhyBurst | MacInsert | MacDeliver | MacStrip | RosterDown | RosterUp
                | StaleFrame | Replay | SeqlockBusy | SemAcquire | JoinRejected | NodeOnline => {}
            }
        }
        for plane in Plane::ALL {
            use Plane::*;
            match plane {
                Phy | Mac | Delivery | Transport | Membership | Cache | Services | Pdes | Load => {}
            }
        }
    }

    #[test]
    fn retains_recent_events_in_order() {
        let r = FlightRing::new(8);
        for i in 0..5 {
            r.record(ev(i * 10, i));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.recorded(), 5);
        let ats: Vec<u64> = r.events().map(|e| e.at_ns).collect();
        assert_eq!(ats, [0, 10, 20, 30, 40]);
        assert!(dump(&r).contains("5 event(s) retained, 0 dropped"));
    }

    #[test]
    fn wraparound_keeps_newest_window() {
        let r = FlightRing::new(4);
        for i in 0..10u64 {
            r.record(ev(i, i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.recorded(), 10);
        let ats: Vec<u64> = r.events().map(|e| e.at_ns).collect();
        assert_eq!(ats, [6, 7, 8, 9], "oldest-first window after wrap");
        let dump = dump(&r);
        assert!(dump.contains("6 dropped to wraparound"), "{dump}");
    }

    #[test]
    fn dump_renders_global_and_node_events() {
        let r = FlightRing::new(4);
        r.record(FlightEvent {
            at_ns: 5,
            node: GLOBAL,
            plane: Plane::Membership,
            kind: FlightKind::RosterUp,
            a: 2,
            b: 6,
        });
        r.record(ev(7, 3));
        let dump = dump(&r);
        assert!(dump.contains("node   - membership ring up: epoch 2, 6 node(s)"), "{dump}");
        assert!(dump.contains("node   1 mac"), "{dump}");
    }
}
