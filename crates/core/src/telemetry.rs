//! Cluster-level observability wiring.
//!
//! [`Cluster::enable_telemetry`](crate::Cluster::enable_telemetry)
//! hands one shared [`Telemetry`] to every layer — PHY/MAC/delivery via
//! the ring [`NodeStack`](ampnet_ring::NodeStack), the cache replicas,
//! the message endpoints — and registers the cluster-wide control-plane
//! instruments here. All record sites live next to the code they
//! observe; this module only owns the handles and the flight-event
//! glue for transitions the `Cluster` itself drives (rostering, smart
//! data recovery, stale-frame release, semaphore grants).

use ampnet_packet::FrameArena;
use ampnet_telemetry::{
    defs, CounterHandle, FlightEvent, FlightKind, GaugeHandle, HistHandle, Plane, Telemetry,
    GLOBAL,
};
use ampnet_sim::SimTime;

/// Handles for the cluster-wide (control-plane) instruments. The
/// default instance is disabled: every handle is `NONE` and the shared
/// `Telemetry` is a no-op, so the record sites below cost one branch.
#[derive(Default)]
pub(crate) struct CoreTelemetry {
    pub(crate) tel: Telemetry,
    replayed_bcast: CounterHandle,
    replayed_ucast: CounterHandle,
    stale_released: CounterHandle,
    arena_slots: GaugeHandle,
    arena_live: GaugeHandle,
    arena_reused: GaugeHandle,
    epoch: GaugeHandle,
    ring_size: GaugeHandle,
    roster_episodes: CounterHandle,
    joins_rejected: CounterHandle,
    bursts_escalated: CounterHandle,
    bursts_absorbed: CounterHandle,
    spare_faults: CounterHandle,
    sem_acquisitions: CounterHandle,
    sem_acquire_ns: HistHandle,
}

impl CoreTelemetry {
    pub(crate) fn new(tel: &Telemetry) -> Self {
        CoreTelemetry {
            tel: tel.clone(),
            replayed_bcast: tel.counter(&defs::TRANSPORT_REPLAYED_BROADCASTS, GLOBAL),
            replayed_ucast: tel.counter(&defs::TRANSPORT_REPLAYED_UNICASTS, GLOBAL),
            stale_released: tel.counter(&defs::TRANSPORT_STALE_FRAMES, GLOBAL),
            arena_slots: tel.gauge(&defs::ARENA_SLOTS, GLOBAL),
            arena_live: tel.gauge(&defs::ARENA_LIVE_FRAMES, GLOBAL),
            arena_reused: tel.gauge(&defs::ARENA_FRAMES_REUSED, GLOBAL),
            epoch: tel.gauge(&defs::MEMBERSHIP_EPOCH, GLOBAL),
            ring_size: tel.gauge(&defs::MEMBERSHIP_RING_SIZE, GLOBAL),
            roster_episodes: tel.counter(&defs::MEMBERSHIP_ROSTER_EPISODES, GLOBAL),
            joins_rejected: tel.counter(&defs::MEMBERSHIP_JOINS_REJECTED, GLOBAL),
            bursts_escalated: tel.counter(&defs::MEMBERSHIP_BURSTS_ESCALATED, GLOBAL),
            bursts_absorbed: tel.counter(&defs::MEMBERSHIP_BURSTS_ABSORBED, GLOBAL),
            spare_faults: tel.counter(&defs::MEMBERSHIP_SPARE_FAULTS, GLOBAL),
            sem_acquisitions: tel.counter(&defs::SERVICES_SEM_ACQUISITIONS, GLOBAL),
            sem_acquire_ns: tel.histogram(&defs::SERVICES_SEM_ACQUIRE_NS, GLOBAL),
        }
    }

    // ----- transport -----

    /// An in-flight frame arrived with a stale roster epoch stamp (the
    /// epoch's low 32 bits) and was released back to the arena.
    #[inline]
    pub(crate) fn stale_frame(&self, now: SimTime, node: u8, frame_stamp: u32) {
        self.tel.inc(self.stale_released);
        self.tel.flight(FlightEvent {
            at_ns: now.0,
            node,
            plane: Plane::Transport,
            kind: FlightKind::StaleFrame,
            a: u64::from(frame_stamp),
            b: 0,
        });
    }

    /// Smart data recovery replayed `bcast` broadcasts and `ucast`
    /// unicasts from `node` after a roster episode.
    pub(crate) fn replayed(&self, now: SimTime, node: u8, bcast: u64, ucast: u64) {
        if bcast == 0 && ucast == 0 {
            return;
        }
        self.tel.add(self.replayed_bcast, bcast);
        self.tel.add(self.replayed_ucast, ucast);
        self.tel.flight(FlightEvent {
            at_ns: now.0,
            node,
            plane: Plane::Transport,
            kind: FlightKind::Replay,
            a: bcast,
            b: ucast,
        });
    }

    /// Refresh the arena occupancy gauges (called at snapshot time).
    pub(crate) fn publish_arena(&self, arena: &FrameArena) {
        let stats = arena.stats();
        self.tel.set(self.arena_slots, arena.capacity() as i64);
        self.tel.set(self.arena_live, stats.peak_live as i64);
        self.tel.set(self.arena_reused, stats.reused as i64);
    }

    // ----- membership -----

    pub(crate) fn roster_started(&self, now: SimTime, epoch: u64) {
        self.tel.flight(FlightEvent {
            at_ns: now.0,
            node: GLOBAL,
            plane: Plane::Membership,
            kind: FlightKind::RosterDown,
            a: epoch,
            b: 0,
        });
    }

    pub(crate) fn ring_restored(&self, now: SimTime, epoch: u64, ring_len: usize) {
        self.tel.inc(self.roster_episodes);
        self.tel.set(self.epoch, epoch as i64);
        self.tel.set(self.ring_size, ring_len as i64);
        self.tel.flight(FlightEvent {
            at_ns: now.0,
            node: GLOBAL,
            plane: Plane::Membership,
            kind: FlightKind::RosterUp,
            a: epoch,
            b: ring_len as u64,
        });
    }

    pub(crate) fn burst_escalated(&self) {
        self.tel.inc(self.bursts_escalated);
    }

    pub(crate) fn burst_absorbed(&self) {
        self.tel.inc(self.bursts_absorbed);
    }

    pub(crate) fn spare_fault(&self) {
        self.tel.inc(self.spare_faults);
    }

    pub(crate) fn join_rejected(&self, now: SimTime, node: u8) {
        self.tel.inc(self.joins_rejected);
        self.tel.flight(FlightEvent {
            at_ns: now.0,
            node: GLOBAL,
            plane: Plane::Membership,
            kind: FlightKind::JoinRejected,
            a: node as u64,
            b: 0,
        });
    }

    pub(crate) fn node_online(&self, now: SimTime, node: u8) {
        self.tel.flight(FlightEvent {
            at_ns: now.0,
            node: GLOBAL,
            plane: Plane::Membership,
            kind: FlightKind::NodeOnline,
            a: node as u64,
            b: 0,
        });
    }

    // ----- services -----

    /// A network semaphore was granted at `node` after `latency_ns`.
    pub(crate) fn sem_acquired(&self, now: SimTime, node: u8, sem_offset: u32, latency_ns: u64) {
        self.tel.inc(self.sem_acquisitions);
        self.tel.record(self.sem_acquire_ns, latency_ns);
        self.tel.flight(FlightEvent {
            at_ns: now.0,
            node,
            plane: Plane::Services,
            kind: FlightKind::SemAcquire,
            a: sem_offset as u64,
            b: latency_ns,
        });
    }

    /// A seqlock reader at `node` observed a writer mid-publish.
    #[inline]
    pub(crate) fn seqlock_busy(&self, now: SimTime, node: u8, region: u8, offset: u32) {
        self.tel.flight(FlightEvent {
            at_ns: now.0,
            node,
            plane: Plane::Cache,
            kind: FlightKind::SeqlockBusy,
            a: region as u64,
            b: offset as u64,
        });
    }
}
