//! Cluster control-plane: failure detection, rostering episodes,
//! repairs, joins, and the background diagnostic sweep.
//!
//! Faults address a *plane* of the layered data-plane where they can:
//! a bit-error burst is assessed by the target node's PHY plane
//! ([`NodeStack::phy_burst`](ampnet_ring::NodeStack::phy_burst)) and
//! escalates to a topology-level link failure only if the 8b/10b
//! checker flags violations. Topology faults
//! (crashed nodes, cut fibers, dead switches) hit the plant directly
//! and trigger rostering through loss of light, as on slides 16/18.

use crate::cluster::{Cluster, Ev, RosterEvent, RosterReason, TxPort};
use crate::observe::ObservedEvent;
use ampnet_dk::{assimilate, JoinRequest};
use ampnet_roster::{planned_rostering, run_rostering, RosterOutcome, RosterSkip};
use ampnet_sim::SimDuration;
use ampnet_topo::montecarlo::Component;
use ampnet_topo::{NodeId, PlantRing};

impl Cluster {
    pub(crate) fn apply_error_burst(&mut self, node: u8, seed: u64, errors: u32) {
        // Like a fault on a component the plant does not have: a burst
        // addressed to a node that does not exist hits nothing.
        if node as usize >= self.nodes.len() {
            return;
        }
        // Hand the burst to the PHY plane of the afflicted node; its
        // 8b/10b checker decides whether anything is detectable.
        let now = self.sim.now();
        let detected = self.nodes[node as usize].stack.phy_burst(now, seed, errors);
        self.observe(ObservedEvent::ErrorBurst { node, errors, detected });
        let pos = self.ring_pos[node as usize];
        if detected == 0 || !self.ring_up || pos == usize::MAX || self.ring.order.len() < 2 {
            // Nothing detectable, or the lasers are already down /
            // re-syncing: the burst changes nothing.
            self.observe(ObservedEvent::ErrorBurstAbsorbed { node });
            return;
        }
        // Loss-of-sync on the incoming fiber: the final segment of the
        // upstream hop's route into this node is declared dead.
        let n = self.ring.order.len();
        let up = (pos + n - 1) % n;
        let link =
            self.topo
                .hop_last_link(self.ring.order[up], NodeId(node), &self.ring.hops[up]);
        self.observe(ObservedEvent::ErrorBurstEscalated { node, link });
        self.inject_failure(link);
    }

    pub(crate) fn inject_failure(&mut self, c: Component) {
        crate::diagnostics::abandon_if_running(self);
        self.observe(ObservedEvent::FailureInjected(c));
        self.topo.apply(c);
        // A node id the plant does not have is a no-op there; it must
        // be one here too, and falls through to the spare-fault path.
        match c {
            Component::Node(n) if (n.0 as usize) < self.nodes.len() => {
                self.nodes[n.0 as usize].online = false;
                crate::apps::on_node_death(self, n.0);
            }
            _ => {}
        }
        let now = self.sim.now();
        match run_rostering(&self.topo, &self.ring, c, now, self.epoch, &self.cfg.timing.roster)
        {
            Ok(outcome) => {
                self.ring_down_at = now;
                let eta = outcome.completed_at;
                self.begin_episode(RosterReason::Failure(c), outcome);
                self.observe(ObservedEvent::RosterStarted { epoch: self.epoch, cause: c, eta });
            }
            Err(RosterSkip::SpareComponent) => self.observe(ObservedEvent::SpareFault(c)),
            Err(RosterSkip::NoSurvivors) => {
                self.ring_up = false;
                self.ring = PlantRing::empty();
                self.ring_pos.fill(usize::MAX);
                self.ring_succ.fill(None);
                self.observe(ObservedEvent::NoSurvivors(c));
            }
        }
    }

    /// Start a roster episode (failure, repair or join alike): the ring
    /// stops carrying traffic until `outcome` completes.
    pub(crate) fn begin_episode(&mut self, reason: RosterReason, outcome: RosterOutcome) {
        self.ring_up = false;
        self.epoch = outcome.epoch;
        self.sim
            .schedule_at(outcome.completed_at, Ev::RingRestored { epoch: outcome.epoch });
        self.pending_roster = Some((reason, outcome));
    }

    /// A planned episode onto `ring`, the plant's largest ring: a join
    /// or a repair extends the live ring.
    fn extend_ring(&mut self, reason: RosterReason, ring: PlantRing) {
        let (now, epoch) = (self.sim.now(), self.epoch + 1);
        if let Ok(outcome) =
            planned_rostering(&self.topo, ring, now, epoch, &self.cfg.timing.roster)
        {
            self.begin_episode(reason, outcome);
        }
    }

    fn install_ring(&mut self, outcome: &RosterOutcome) {
        self.ring = outcome.ring.clone();
        self.ring_pos.fill(usize::MAX);
        for (pos, n) in self.ring.order.iter().enumerate() {
            self.ring_pos[n.0 as usize] = pos;
        }
        // Refresh the per-node successor memo (see `Cluster::ring_succ`)
        // and point each member's PHY at the fiber run to its successor.
        self.ring_succ.fill(None);
        let len = self.ring.order.len();
        for (pos, n) in self.ring.order.iter().enumerate() {
            let v = self.ring.order[(pos + 1) % len];
            let fiber = self
                .topo
                .hop_fiber_m(*n, v, &self.ring.hops[pos]);
            self.ring_succ[n.0 as usize] = Some(v.0);
            self.nodes[n.0 as usize].stack.phy.set_fiber_length(fiber);
        }
    }

    pub(crate) fn restore_ring(&mut self, epoch: u64) {
        if epoch != self.epoch {
            return; // superseded by a newer episode
        }
        let Some((reason, outcome)) = self.pending_roster.take() else {
            return;
        };
        self.install_ring(&outcome);
        self.observe(ObservedEvent::RingRestored {
            epoch,
            ring_len: self.ring.len(),
            reason: reason.clone(),
            tours: outcome.recovery_in_tours(),
        });
        self.history.push(RosterEvent {
            reason,
            outcome,
        });
        self.ring_up = true;
        self.ports.fill(TxPort::IDLE);
        self.retry_pending.fill(false);
        // Smart data recovery: every surviving member replays its
        // unacknowledged traffic (idempotent at the receivers). A
        // unicast is possibly-lost — and therefore replayed — if it
        // was inserted within two quiet tours of the instant the ring
        // went down; anything older had certainly been delivered. The
        // outage duration itself must not count against the window.
        let expiry = self.quiet_tour().saturating_mul(2);
        let replay_after = self.ring_down_at - expiry.min(SimDuration::from_nanos(self.ring_down_at.as_nanos()));
        let now = self.sim.now();
        for i in 0..self.nodes.len() {
            if !self.nodes[i].online {
                self.nodes[i].outstanding.clear();
                self.nodes[i].outstanding_unicast.clear();
                continue;
            }
            // Drained in place: nothing re-enters these lists before
            // `kick_all` below, and the deques keep their capacity for
            // the traffic that follows.
            let bcast_count = self.nodes[i].outstanding.len() as u64;
            let mut ucast_count = 0u64;
            while let Some((_, p)) = self.nodes[i].outstanding.pop_front() {
                self.enqueue_own(i as u8, p);
            }
            while let Some((t, p)) = self.nodes[i].outstanding_unicast.pop_front() {
                if t >= replay_after {
                    ucast_count += 1;
                    self.enqueue_own(i as u8, p);
                }
            }
            self.tel.replayed(now, i as u8, bcast_count, ucast_count);
        }
        self.kick_all();
        self.start_certification();
        crate::apps::on_ring_restored(self);
    }

    /// Restore a failed switch or fiber. A repair that would let a
    /// strictly larger ring exist (some node was excluded) triggers a
    /// roster episode to capture the capacity; otherwise it silently
    /// returns the component to the spare pool.
    pub(crate) fn apply_repair(&mut self, c: Component) {
        if matches!(c, Component::Node(_)) {
            return;
        }
        self.topo.restore(c);
        self.observe(ObservedEvent::RepairApplied(c));
        let best = self.topo.largest_ring();
        if best.len() > self.ring.len() && self.ring_up {
            // Re-roster to absorb the recovered capacity.
            self.extend_ring(RosterReason::Repair(c), best);
        }
    }

    pub(crate) fn handle_join(&mut self, node: u8, req: JoinRequest) {
        // Only a node the cluster was built with can (re-)join.
        if node as usize >= self.nodes.len() {
            return;
        }
        let cache_bytes: u64 = self
            .cfg
            .cache_regions
            .values()
            .map(|&sz| u64::from(sz))
            .sum();
        match assimilate(req, self.cfg.compat, cache_bytes, &self.cfg.timing.assimilation) {
            Ok(timeline) => {
                // The node becomes ring-eligible (lasers up, conforming
                // to the assimilation rules) only when it comes online.
                self.sim
                    .schedule_in(timeline.total(), Ev::NodeOnline { node });
            }
            Err(f) => self.observe(ObservedEvent::JoinRejected(node, f)),
        }
    }

    pub(crate) fn handle_node_online(&mut self, node: u8) {
        self.topo.restore(Component::Node(NodeId(node)));
        // Cache refresh completed (time already charged): copy the
        // sponsor's replica. The packet-level protocol is validated in
        // ampnet-cache::refresh; the cluster does not run it yet
        // (ROADMAP item 2).
        let sponsor = (0..self.nodes.len())
            .find(|&i| i != node as usize && self.nodes[i].online);
        if let Some(s) = sponsor {
            // Re-register the counters under this node's label.
            let mut cache = self.nodes[s].cache.rehomed(node);
            cache.set_telemetry(&self.tel.tel);
            self.nodes[node as usize].cache = cache;
        }
        self.nodes[node as usize].online = true;
        crate::apps::on_node_online(self, node);
        self.observe(ObservedEvent::NodeOnline(node));
        // Extend the ring: a join-triggered roster episode.
        let best = self.topo.largest_ring();
        self.extend_ring(RosterReason::Join(NodeId(node)), best);
    }

    pub(crate) fn run_diag_sweep(&mut self) {
        let Some(interval) = self.sweep_interval else {
            return;
        };
        // Scan: failed links/switches that are not on the current ring
        // (ring faults trigger rostering through loss of light).
        // `failed_components` reports dead switching elements first,
        // then dark fibers in enumeration order.
        for c in self.topo.failed_components() {
            if !self.sweep_reported(c) {
                self.observe(ObservedEvent::SweepFoundSpare(c));
            }
        }
        self.sim.schedule_in(interval, Ev::DiagSweep);
    }

    /// Whether the sweep already reported `c` since its last repair: a
    /// spare that fails, is repaired and fails again is a new fault.
    fn sweep_reported(&self, c: Component) -> bool {
        self.observations
            .iter()
            .rev()
            .find_map(|(_, ev)| match ev {
                ObservedEvent::SweepFoundSpare(k) if *k == c => Some(true),
                ObservedEvent::RepairApplied(k) if *k == c => Some(false),
                _ => None,
            })
            .unwrap_or(false)
    }
}
