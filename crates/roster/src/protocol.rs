//! The rostering protocol (slides 13, 16, 18).
//!
//! > A modified flooding algorithm that explores the network for
//! > available paths and allows the creation of the largest possible
//! > logical ring. Rostering completes in two ring-tour times.
//!
//! The protocol runs in two token tours after detection:
//!
//! 1. **Explore tour.** The roster master launches an EXPLORE token.
//!    At each step the holder searches for its next live neighbour:
//!    candidates are tried in ascending-id order through the holder's
//!    live switch ports; each dead candidate costs one probe timeout
//!    (this is the "explores the network for available paths" part —
//!    flooding probes, merged into a deterministic token walk). The
//!    token accumulates every reachable node's switch mask and returns
//!    to the master.
//! 2. **Commit tour.** The master computes the *largest possible
//!    logical ring* from the gathered masks (the exact solver from
//!    `ampnet-topo` — this is firmware computing over its topology
//!    database) and circulates a COMMIT carrying the new roster; each
//!    member installs it; when the token returns, the ring is live and
//!    the built-in diagnostics certify the configuration.
//!
//! The walk is sequential, so simulated time is accumulated directly
//! along the token path — no event queue needed, yet every
//! microsecond is accounted: detection, per-hop serialization, fiber
//! propagation, ColdFire processing, and failed-probe timeouts.

use crate::detect::{detect, elect_flooding_master, Detection};
use crate::params::RosterParams;
use ampnet_sim::{SimDuration, SimTime};
use ampnet_topo::montecarlo::Component;
use ampnet_topo::{NodeId, Plant, PlantRing};

/// Wire size of an EXPLORE/PROBE roster packet (one fixed cell).
const EXPLORE_WIRE: usize = 20;

/// Full accounting of one rostering episode.
#[derive(Debug, Clone)]
pub struct RosterOutcome {
    /// Roster epoch after recovery.
    pub epoch: u64,
    /// The committed logical ring.
    pub ring: PlantRing,
    /// The node that ran the algorithm.
    pub master: NodeId,
    /// Failure instant.
    pub failed_at: SimTime,
    /// Instant the ring was live again.
    pub completed_at: SimTime,
    /// Failure → detection.
    pub detect_time: SimDuration,
    /// Explore tour duration.
    pub explore_time: SimDuration,
    /// Commit tour duration.
    pub commit_time: SimDuration,
    /// Failed neighbour probes during exploration.
    pub failed_probes: u64,
    /// One quiet roster-speed tour of the *new* ring — the unit the
    /// paper's "two ring-tour times" is measured in.
    pub ring_tour: SimDuration,
}

impl RosterOutcome {
    /// Total recovery time (detection + both tours).
    pub fn recovery_time(&self) -> SimDuration {
        self.completed_at - self.failed_at
    }

    /// Recovery expressed in ring tours (paper: ≤ ~2 plus detection).
    pub fn recovery_in_tours(&self) -> f64 {
        self.recovery_time().in_units_of(self.ring_tour)
    }
}

/// Why rostering did not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RosterSkip {
    /// The failed component was not on the ring: nothing to heal.
    SpareComponent,
    /// No live node remains to run the algorithm.
    NoSurvivors,
}

/// Size of a COMMIT roster message for `n` members, in wire bytes:
/// one fixed cell per 4 roster entries (2 bytes each), minimum one.
fn commit_wire(n: usize) -> usize {
    20 * n.div_ceil(4).max(1)
}

/// Run one rostering episode: `failed` has just been applied to
/// `plant`; `current` is the ring that was live. Returns the outcome
/// or the reason no episode was needed.
pub fn run_rostering(
    plant: &Plant,
    current: &PlantRing,
    failed: Component,
    failed_at: SimTime,
    epoch: u64,
    params: &RosterParams,
) -> Result<RosterOutcome, RosterSkip> {
    let detection = detect(plant, current, failed, params);
    let (master, detect_time) = match (elect_flooding_master(plant, &detection), &detection) {
        (Some(m), Detection::LossOfLight { delay, .. })
        | (Some(m), Detection::Heartbeat { delay, .. }) => (m, *delay),
        (None, Detection::LossOfLight { .. }) => {
            // Every loss-of-light detector lost its own last
            // attachment along with the ring hop: nobody who saw the
            // dark fiber can flood a token. Connectable survivors (if
            // any) notice the heartbeat silence instead and the lowest
            // of them runs the algorithm.
            match plant.node_ids().find(|&n| plant.connectable(n)) {
                Some(m) => (m, params.heartbeat_detect()),
                None => return Err(RosterSkip::NoSurvivors),
            }
        }
        _ => {
            // No detector at all. Either the failed component was a
            // true spare (the ring still works) or nobody remains who
            // could run the algorithm.
            return if current.validate(plant).is_ok() {
                Err(RosterSkip::SpareComponent)
            } else {
                Err(RosterSkip::NoSurvivors)
            };
        }
    };

    // The ring the algorithm will discover and commit.
    let ring = plant.largest_ring();
    Ok(episode(plant, ring, master, failed_at, detect_time, epoch + 1, params))
}

/// Bring-up rostering: boot the whole plant with no prior ring.
/// The master is the lowest-id alive node.
pub fn initial_rostering(
    plant: &Plant,
    params: &RosterParams,
) -> Result<RosterOutcome, RosterSkip> {
    planned_rostering(plant, plant.largest_ring(), SimTime::ZERO, 1, params)
}

/// A planned episode — bring-up, or a join or repair extending a live
/// ring: no failure to detect, the lowest-id alive node commits `ring`
/// (the plant's largest, solved by the caller) as `epoch`, starting
/// at `at`.
pub fn planned_rostering(
    plant: &Plant,
    ring: PlantRing,
    at: SimTime,
    epoch: u64,
    params: &RosterParams,
) -> Result<RosterOutcome, RosterSkip> {
    let master = plant
        .node_ids()
        .find(|&n| plant.node_alive(n))
        .ok_or(RosterSkip::NoSurvivors)?;
    Ok(episode(plant, ring, master, at, SimDuration::ZERO, epoch, params))
}

/// Account the two token tours that commit `ring` from `master`.
fn episode(
    plant: &Plant,
    ring: PlantRing,
    master: NodeId,
    failed_at: SimTime,
    detect_time: SimDuration,
    epoch: u64,
    params: &RosterParams,
) -> RosterOutcome {
    // Rotate so the tour starts at the master. The master is alive
    // and connectable, but off-crossbar the maximal ring may still
    // exclude it (a torus minus one vertex has no Hamiltonian cycle
    // through every survivor); `rotate_to` then leaves the ring as-is.
    let ring = rotate_to(ring, master);
    let n = ring.order.len();
    let wire = commit_wire(n);
    let mut explore_time = SimDuration::ZERO;
    let mut commit_time = SimDuration::ZERO;
    let mut ring_tour = SimDuration::ZERO;
    let mut failed_probes = 0u64;
    for i in 0..n {
        let u = ring.order[i];
        let v = ring.order[(i + 1) % n];
        // Tour 1, explore: probe candidates with ids cyclically between
        // u and v that are not ring members reachable later — each
        // dead/unreachable candidate burns one probe timeout (the
        // flooding search for available paths) — then the successful hop.
        let dead_between = dead_candidates_between(plant, u, v);
        failed_probes += dead_between;
        explore_time += params.probe_timeout.saturating_mul(dead_between);
        let fiber = plant.hop_fiber_m(u, v, &ring.hops[i]);
        let quiet_hop = params.hop_cost(fiber, EXPLORE_WIRE);
        explore_time += quiet_hop;
        // Tour 2, commit: the roster message is larger.
        commit_time += params.hop_cost(fiber, wire);
        // Normalizer: a quiet roster-speed tour (explore-size packets).
        ring_tour += quiet_hop;
    }
    RosterOutcome {
        epoch,
        ring,
        master,
        failed_at,
        completed_at: failed_at + detect_time + explore_time + commit_time,
        detect_time,
        explore_time,
        commit_time,
        failed_probes,
        ring_tour,
    }
}

fn rotate_to(mut ring: PlantRing, start: NodeId) -> PlantRing {
    if let Some(pos) = ring.order.iter().position(|&n| n == start) {
        ring.order.rotate_left(pos);
        ring.hops.rotate_left(pos);
    }
    ring
}

/// Nodes with ids cyclically strictly between `u` and `v` that are not
/// alive-and-connected — the candidates the explorer wastes probes on.
fn dead_candidates_between(plant: &Plant, u: NodeId, v: NodeId) -> u64 {
    let total = plant.n_nodes() as u8;
    let mut count = 0u64;
    let mut id = (u.0 + 1) % total;
    while id != v.0 {
        if id != u.0 && !plant.connectable(NodeId(id)) {
            count += 1;
        }
        id = (id + 1) % total;
        if id == u.0 {
            break;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampnet_topo::SwitchId;

    fn quad(n: usize, fiber: f64) -> (Plant, PlantRing) {
        let plant = Plant::crossbar(n, 4, fiber);
        let ring = plant.largest_ring();
        (plant, ring)
    }

    #[test]
    fn single_node_failure_heals_to_n_minus_1() {
        let (mut topo, ring) = quad(8, 100.0);
        let dead = ring.order[3];
        topo.apply(Component::Node(dead));
        let out = run_rostering(
            &topo,
            &ring,
            Component::Node(dead),
            SimTime(1_000_000),
            1,
            &RosterParams::default(),
        )
        .unwrap();
        assert_eq!(out.ring.len(), 7);
        assert!(!out.ring.order.contains(&dead));
        assert_eq!(out.epoch, 2);
        out.ring.validate(&topo).unwrap();
        // Master is the downstream neighbour of the dead node.
        assert!(out.ring.order.contains(&out.master));
        assert_eq!(out.ring.order[0], out.master, "tour starts at master");
    }

    #[test]
    fn recovery_close_to_two_ring_tours() {
        let (mut topo, ring) = quad(16, 100.0);
        let dead = ring.order[5];
        topo.apply(Component::Node(dead));
        let out = run_rostering(
            &topo,
            &ring,
            Component::Node(dead),
            SimTime::ZERO,
            0,
            &RosterParams::default(),
        )
        .unwrap();
        let tours = out.recovery_in_tours();
        // Two tours + detection + one probe + larger commit packets.
        assert!(
            (2.0..3.2).contains(&tours),
            "recovery took {tours:.2} ring tours"
        );
    }

    #[test]
    fn slide_16_band_for_default_plants() {
        // 32–64 nodes, 100 m fiber: recovery must land in 1–2 ms-ish.
        for n in [32usize, 48] {
            let (mut topo, ring) = quad(n, 100.0);
            let dead = ring.order[1];
            topo.apply(Component::Node(dead));
            let out = run_rostering(
                &topo,
                &ring,
                Component::Node(dead),
                SimTime::ZERO,
                0,
                &RosterParams::default(),
            )
            .unwrap();
            let ms = out.recovery_time().as_millis_f64();
            assert!(
                (0.8..2.6).contains(&ms),
                "{n} nodes recovered in {ms:.2} ms"
            );
        }
    }

    #[test]
    fn switch_failure_reroutes_everyone() {
        let (mut topo, ring) = quad(6, 100.0);
        topo.apply(Component::Switch(SwitchId(0)));
        let out = run_rostering(
            &topo,
            &ring,
            Component::Switch(SwitchId(0)),
            SimTime::ZERO,
            4,
            &RosterParams::default(),
        )
        .unwrap();
        assert_eq!(out.ring.len(), 6, "all nodes survive on spare switches");
        assert!(out
            .ring
            .hops
            .iter()
            .all(|h| !h.via.contains(&SwitchId(0))));
        out.ring.validate(&topo).unwrap();
    }

    #[test]
    fn spare_failure_skips_rostering() {
        let (mut topo, ring) = quad(4, 100.0);
        let u = ring.order[0];
        topo.apply(Component::Link(u, SwitchId(2))); // spare fiber
        let r = run_rostering(
            &topo,
            &ring,
            Component::Link(u, SwitchId(2)),
            SimTime::ZERO,
            0,
            &RosterParams::default(),
        );
        assert_eq!(r.unwrap_err(), RosterSkip::SpareComponent);
    }

    #[test]
    fn total_loss_reports_no_survivors() {
        let (mut topo, ring) = quad(2, 100.0);
        topo.apply(Component::Node(NodeId(0)));
        topo.apply(Component::Node(NodeId(1)));
        let r = run_rostering(
            &topo,
            &ring,
            Component::Node(NodeId(1)),
            SimTime::ZERO,
            0,
            &RosterParams::default(),
        );
        assert_eq!(r.unwrap_err(), RosterSkip::NoSurvivors);
    }

    #[test]
    fn fiber_length_stretches_recovery() {
        let params = RosterParams::default();
        let mut times = vec![];
        for fiber in [10.0, 10_000.0] {
            let (mut topo, ring) = quad(16, fiber);
            let dead = ring.order[2];
            topo.apply(Component::Node(dead));
            let out = run_rostering(
                &topo,
                &ring,
                Component::Node(dead),
                SimTime::ZERO,
                0,
                &params,
            )
            .unwrap();
            times.push(out.recovery_time());
        }
        assert!(
            times[1] > times[0],
            "longer fiber must slow rostering: {times:?}"
        );
    }

    #[test]
    fn probes_accounted_for_dead_neighbours() {
        let (mut topo, ring) = quad(8, 100.0);
        // Kill two adjacent nodes: the explorer burns probes skipping
        // them.
        let d1 = ring.order[2];
        let d2 = ring.order[3];
        topo.apply(Component::Node(d1));
        topo.apply(Component::Node(d2));
        let out = run_rostering(
            &topo,
            &ring,
            Component::Node(d1),
            SimTime::ZERO,
            0,
            &RosterParams::default(),
        )
        .unwrap();
        assert_eq!(out.ring.len(), 6);
        assert!(out.failed_probes >= 2, "both dead nodes probed");
    }

    #[test]
    fn initial_rostering_builds_full_ring() {
        let topo = Plant::crossbar(10, 4, 100.0);
        let out = initial_rostering(&topo, &RosterParams::default()).unwrap();
        assert_eq!(out.ring.len(), 10);
        assert_eq!(out.master, NodeId(0));
        assert_eq!(out.epoch, 1);
        assert_eq!(out.detect_time, SimDuration::ZERO);
        out.ring.validate(&topo).unwrap();
    }

    #[test]
    fn heartbeat_detection_for_silent_death() {
        // A node marked dead while its hop into it still passes light:
        // only possible if it is not the transmitter of any ring hop —
        // not the case on a ring, so loss-of-light normally wins. Test
        // the heartbeat path via a 1-ring where the dead node has no
        // outgoing hop... on a ring every member transmits, so instead
        // verify detect() chooses heartbeat only when no hop breaks:
        // simulate by restoring the dead node's links conceptually —
        // covered in detect.rs; here assert loss-of-light dominates.
        let (mut topo, ring) = quad(4, 100.0);
        let dead = ring.order[1];
        topo.apply(Component::Node(dead));
        let out = run_rostering(
            &topo,
            &ring,
            Component::Node(dead),
            SimTime::ZERO,
            0,
            &RosterParams::default(),
        )
        .unwrap();
        assert_eq!(
            out.detect_time,
            RosterParams::default().detect_loss_of_light
        );
    }

    #[test]
    fn epoch_increments() {
        let (mut topo, ring) = quad(4, 100.0);
        topo.apply(Component::Node(ring.order[0]));
        let out = run_rostering(
            &topo,
            &ring,
            Component::Node(ring.order[0]),
            SimTime::ZERO,
            41,
            &RosterParams::default(),
        )
        .unwrap();
        assert_eq!(out.epoch, 42);
    }

    #[test]
    fn torus_node_failure_heals() {
        let plant = Plant::torus3d([2, 2, 2], 100.0);
        let boot = initial_rostering(&plant, &RosterParams::default()).unwrap();
        assert_eq!(boot.ring.len(), 8);
        let mut damaged = plant;
        let dead = boot.ring.order[3];
        damaged.apply(Component::Node(dead));
        let out = run_rostering(
            &damaged,
            &boot.ring,
            Component::Node(dead),
            SimTime::ZERO,
            1,
            &RosterParams::default(),
        )
        .unwrap();
        assert!(!out.ring.order.contains(&dead));
        assert!(out.ring.len() >= 6);
        out.ring.validate(&damaged).unwrap();
        // Unlike a crossbar, the torus's maximal ring may exclude the
        // master itself (Q3 minus a vertex has a 6-cycle over 7
        // survivors); the tour only starts at the master when the
        // master made the roster.
        if out.ring.order.contains(&out.master) {
            assert_eq!(out.ring.order[0], out.master);
        }
    }

    #[test]
    fn clos_spine_failure_heals_full_ring() {
        let plant = Plant::folded_clos(6, 2, 2, 100.0);
        let boot = initial_rostering(&plant, &RosterParams::default()).unwrap();
        assert_eq!(boot.ring.len(), 6);
        let mut damaged = plant;
        damaged.apply(Component::Switch(SwitchId(2)));
        match run_rostering(
            &damaged,
            &boot.ring,
            Component::Switch(SwitchId(2)),
            SimTime::ZERO,
            1,
            &RosterParams::default(),
        ) {
            // If the boot ring only crossed spine 3, spine 2 is spare;
            // otherwise rostering must rebuild the full ring over the
            // surviving spine.
            Ok(out) => {
                assert_eq!(out.ring.len(), 6);
                out.ring.validate(&damaged).unwrap();
            }
            Err(e) => assert_eq!(e, RosterSkip::SpareComponent),
        }
    }
}
