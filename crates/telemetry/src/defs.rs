//! The static metric catalog: every metric any AmpNet crate may
//! register, declared once.
//!
//! [`ALL`] is the contract between the code and `docs/METRICS.md`: a
//! test generates the doc table from these defs and a second test runs
//! a full-stack exercise and asserts the set of *actually registered*
//! defs equals [`ALL`] — so neither dead catalog entries nor
//! undocumented metrics can survive CI.

use crate::metric::{MetricDef, MetricKind, Plane, Unit};

/// Declares one catalog entry. The first argument is the entry's
/// position: its index in [`ALL`], which is also its column in the
/// registry's index (`catalog_positions_match_all` pins the two).
macro_rules! def {
    ($position:literal, $ident:ident, $name:literal, $kind:ident, $unit:ident,
     $plane:ident, $per_node:literal, $evidence:literal, $help:literal) => {
        /// Catalog entry — see the struct fields for details.
        pub static $ident: MetricDef = MetricDef {
            position: $position,
            name: $name,
            kind: MetricKind::$kind,
            unit: Unit::$unit,
            plane: Plane::$plane,
            per_node: $per_node,
            help: $help,
            evidence: $evidence,
        };
    };
}

// ---- phy --------------------------------------------------------------
def!(0, PHY_TX_FRAMES, "phy_tx_frames", Counter, Frames, Phy, true,
    "slide 6",
    "Wire frames clocked onto the fiber by this node's serial port");
def!(1, PHY_BURSTS_INJECTED, "phy_bursts_injected", Counter, Events, Phy, true,
    "slide 16",
    "Bit-error bursts injected at this PHY (fault campaigns)");
def!(2, PHY_BURST_BIT_ERRORS, "phy_burst_bit_errors", Counter, Events, Phy, true,
    "slide 16",
    "Single-bit corruptions contained in injected bursts");
def!(3, PHY_BURST_VIOLATIONS, "phy_burst_violations", Counter, Events, Phy, true,
    "slide 16",
    "Code/disparity violations the 8b/10b checker flagged in bursts");

// ---- mac --------------------------------------------------------------
def!(4, MAC_INSERTED, "mac_inserted", Counter, Frames, Mac, true,
    "slide 7",
    "Frames this node inserted into the ring from its own queues");
def!(5, MAC_FORWARDED, "mac_forwarded", Counter, Frames, Mac, true,
    "slide 7",
    "Transit frames forwarded through the insertion register");
def!(6, MAC_STRIPPED, "mac_stripped", Counter, Frames, Mac, true,
    "slide 7",
    "Own frames stripped after completing a full ring tour");
def!(7, MAC_WOULD_DROP, "mac_would_drop", Gauge, Frames, Mac, true,
    "slide 8",
    "Frames the MAC would have dropped (losslessness: must stay 0)");
def!(8, MAC_TRANSIT_HIGHWATER, "mac_transit_highwater_bytes", Gauge, Bytes, Mac, true,
    "slide 7",
    "High-water mark of the transit (insertion) register in bytes");
def!(9, MAC_BACKOFFS, "mac_backoffs", Gauge, Events, Mac, true,
    "slide 8",
    "Pacing-governor backoff decisions taken by this node's MAC");
def!(10, RING_TOUR_NS, "ring_tour_ns", Histogram, Nanos, Mac, false,
    "slide 8",
    "Full ring-tour latency (insert to strip) across all nodes");
def!(11, RING_ACCESS_NS, "ring_access_ns", Histogram, Nanos, Mac, false,
    "slide 8",
    "Medium-access wait from enqueue to insertion");

// ---- delivery ---------------------------------------------------------
def!(12, DELIVERY_FRAMES, "delivery_frames", Counter, Frames, Delivery, true,
    "slide 7",
    "Frames copied up into this node's host delivery queues");
def!(13, DELIVERY_PAYLOAD_BYTES, "delivery_payload_bytes", Counter, Bytes, Delivery, true,
    "slide 7",
    "Payload bytes delivered to the host (goodput numerator)");

// ---- transport --------------------------------------------------------
def!(14, ARENA_SLOTS, "arena_frame_slots", Gauge, Slots, Transport, false,
    "slide 5",
    "Frame-arena slots currently allocated (pool size)");
def!(15, ARENA_LIVE_FRAMES, "arena_live_frames", Gauge, Frames, Transport, false,
    "slide 5",
    "Peak simultaneously-live frames observed in the arena");
def!(16, ARENA_FRAMES_REUSED, "arena_frames_reused", Gauge, Frames, Transport, false,
    "slide 5",
    "Pooled frame slots reused without a fresh allocation");
def!(17, TRANSPORT_REPLAYED_BROADCASTS, "transport_replayed_broadcasts", Counter, Packets,
    Transport, false,
    "slide 18",
    "Broadcast packets replayed by smart data recovery after a repair");
def!(18, TRANSPORT_REPLAYED_UNICASTS, "transport_replayed_unicasts", Counter, Packets,
    Transport, false,
    "slide 18",
    "Unicast packets replayed to their destination after a repair");
def!(19, TRANSPORT_STALE_FRAMES, "transport_stale_frames_released", Counter, Frames,
    Transport, false,
    "slide 16",
    "In-flight frames released because their roster epoch went stale");

// ---- membership -------------------------------------------------------
def!(20, MEMBERSHIP_EPOCH, "membership_epoch", Gauge, Epochs, Membership, false,
    "slide 16",
    "Current roster epoch (increments per completed roster episode)");
def!(21, MEMBERSHIP_RING_SIZE, "membership_ring_size", Gauge, Nodes, Membership, false,
    "slide 16",
    "Nodes in the active ring after the latest roster episode");
def!(22, MEMBERSHIP_ROSTER_EPISODES, "membership_roster_episodes", Counter, Events,
    Membership, false,
    "slide 16",
    "Completed roster episodes (boot counts as the first)");
def!(23, MEMBERSHIP_JOINS_REJECTED, "membership_joins_rejected", Counter, Events,
    Membership, false,
    "slide 17",
    "Join attempts rejected by the assimilation rules");
def!(24, MEMBERSHIP_BURSTS_ESCALATED, "membership_bursts_escalated", Counter, Events,
    Membership, false,
    "slide 16",
    "Error bursts that crossed the detection threshold and forced a roster");
def!(25, MEMBERSHIP_BURSTS_ABSORBED, "membership_bursts_absorbed", Counter, Events,
    Membership, false,
    "slide 16",
    "Error bursts absorbed below the escalation threshold");
def!(26, MEMBERSHIP_SPARE_FAULTS, "membership_spare_faults", Counter, Events,
    Membership, false,
    "slide 18",
    "Faults injected into nodes already outside the active ring");

// ---- cache ------------------------------------------------------------
def!(27, CACHE_UPDATES_APPLIED, "cache_updates_applied", Counter, Packets, Cache, true,
    "slide 9",
    "Broadcast cache-update packets applied to this node's replica");
def!(28, CACHE_SEQLOCK_WRITES, "cache_seqlock_writes", Counter, Records, Cache, true,
    "slide 9",
    "Multi-word records published under the seqlock protocol");
def!(29, CACHE_SEQLOCK_READS_OK, "cache_seqlock_reads_ok", Counter, Reads, Cache, true,
    "slide 9",
    "Seqlock reads that validated on the first generation check");
def!(30, CACHE_SEQLOCK_READS_BUSY, "cache_seqlock_reads_busy", Counter, Reads, Cache, true,
    "slide 9",
    "Seqlock reads that observed a concurrent writer and must retry");
def!(31, CACHE_ATOMICS_EXECUTED, "cache_atomics_executed", Counter, Ops, Cache, true,
    "slide 10",
    "D64 atomic operations executed at this node's cache");

// ---- services ---------------------------------------------------------
def!(32, SERVICES_MSGS_SENT, "services_msgs_sent", Counter, Messages, Services, true,
    "slide 12",
    "Datagram messages handed to the fragmentation layer");
def!(33, SERVICES_MSG_FRAGMENTS, "services_msg_fragments", Counter, Packets, Services, true,
    "slide 12",
    "Micro-packet fragments produced by outbound messages");
def!(34, SERVICES_MSGS_ASSEMBLED, "services_msgs_assembled", Counter, Messages, Services, true,
    "slide 12",
    "Inbound messages fully reassembled from fragments");
def!(35, SERVICES_SEM_ACQUISITIONS, "services_sem_acquisitions", Counter, Events, Services,
    false,
    "slide 10",
    "Network semaphore acquisitions granted cluster-wide");
def!(36, SERVICES_SEM_ACQUIRE_NS, "services_sem_acquire_ns", Histogram, Nanos, Services,
    false,
    "slide 10",
    "Semaphore acquire latency from request to ownership");

// ---- pdes -------------------------------------------------------------
def!(37, PDES_SLICES, "pdes_slices", Counter, Events, Pdes, false,
    "slide 15",
    "Lockstep time slices executed by the multi-segment coordinator");
def!(38, PDES_EXCHANGES_ELIDED, "pdes_exchanges_elided", Counter, Events, Pdes, false,
    "slide 15",
    "Boundary exchange halves skipped as provable no-ops (no backlog / no matured crossing)");
def!(39, PDES_QUIESCENT_SHARD_SLICES, "pdes_quiescent_shard_slices", Counter, Events, Pdes,
    false,
    "slide 15",
    "Shard-slices advanced as a bare clock bump (no event due within the slice)");
def!(40, PDES_BARRIERS_ELIDED, "pdes_barriers_elided", Counter, Events, Pdes, false,
    "slide 15",
    "Slices where every shard was quiescent, so no worker thread was spawned");
def!(41, PDES_EXCHANGES_SKIPPED, "pdes_exchanges_skipped", Counter, Events, Pdes, false,
    "slide 15",
    "Boundaries where the whole exchange was skipped (no backlog and no matured crossing)");
def!(42, PDES_DIRTY_BRIDGES, "pdes_dirty_bridges", Counter, Events, Pdes, false,
    "slide 15",
    "Bridge-boundary pairs with a crossing in flight; over pdes_slices x bridges, the dirty-bridge ratio");

// ---- load -------------------------------------------------------------
def!(43, LOAD_ARRIVALS, "load_arrivals", Counter, Ops, Load, false,
    "slide 2",
    "Modeled client operations offered by the open-loop arrival processes, all classes");
def!(44, LOAD_COMPLETIONS, "load_completions", Counter, Ops, Load, false,
    "slide 2",
    "Modeled client operations completed end to end, all classes");
def!(45, LOAD_PUBSUB_LAGGED, "load_pubsub_lagged", Counter, Records, Load, false,
    "slide 12",
    "AmpSubscribe records lost to subscriber lag under load (ring overwritten)");
def!(46, LOAD_PUBSUB_NS, "load_pubsub_ns", Histogram, Nanos, Load, false,
    "slide 12",
    "Publish-to-observe latency of AmpSubscribe records under load");
def!(47, LOAD_CACHE_NS, "load_cache_ns", Histogram, Nanos, Load, false,
    "slide 12",
    "Write-to-replica-visibility latency of AmpFiles writes under load");
def!(48, LOAD_SOCKET_NS, "load_socket_ns", Histogram, Nanos, Load, false,
    "slide 12",
    "AmpIP request-reply round-trip latency under load");
def!(49, LOAD_THREADS_NS, "load_threads_ns", Histogram, Nanos, Load, false,
    "slide 12",
    "AmpThreads submit-to-collect latency under load");
def!(50, LOAD_SEM_NS, "load_sem_ns", Histogram, Nanos, Load, false,
    "slide 10",
    "Semaphore acquire latency inside the contention-storm workload class");

/// Every metric in the catalog, in `docs/METRICS.md` order.
pub static ALL: &[&MetricDef] = &[
    &PHY_TX_FRAMES,
    &PHY_BURSTS_INJECTED,
    &PHY_BURST_BIT_ERRORS,
    &PHY_BURST_VIOLATIONS,
    &MAC_INSERTED,
    &MAC_FORWARDED,
    &MAC_STRIPPED,
    &MAC_WOULD_DROP,
    &MAC_TRANSIT_HIGHWATER,
    &MAC_BACKOFFS,
    &RING_TOUR_NS,
    &RING_ACCESS_NS,
    &DELIVERY_FRAMES,
    &DELIVERY_PAYLOAD_BYTES,
    &ARENA_SLOTS,
    &ARENA_LIVE_FRAMES,
    &ARENA_FRAMES_REUSED,
    &TRANSPORT_REPLAYED_BROADCASTS,
    &TRANSPORT_REPLAYED_UNICASTS,
    &TRANSPORT_STALE_FRAMES,
    &MEMBERSHIP_EPOCH,
    &MEMBERSHIP_RING_SIZE,
    &MEMBERSHIP_ROSTER_EPISODES,
    &MEMBERSHIP_JOINS_REJECTED,
    &MEMBERSHIP_BURSTS_ESCALATED,
    &MEMBERSHIP_BURSTS_ABSORBED,
    &MEMBERSHIP_SPARE_FAULTS,
    &CACHE_UPDATES_APPLIED,
    &CACHE_SEQLOCK_WRITES,
    &CACHE_SEQLOCK_READS_OK,
    &CACHE_SEQLOCK_READS_BUSY,
    &CACHE_ATOMICS_EXECUTED,
    &SERVICES_MSGS_SENT,
    &SERVICES_MSG_FRAGMENTS,
    &SERVICES_MSGS_ASSEMBLED,
    &SERVICES_SEM_ACQUISITIONS,
    &SERVICES_SEM_ACQUIRE_NS,
    &PDES_SLICES,
    &PDES_EXCHANGES_ELIDED,
    &PDES_QUIESCENT_SHARD_SLICES,
    &PDES_BARRIERS_ELIDED,
    &PDES_EXCHANGES_SKIPPED,
    &PDES_DIRTY_BRIDGES,
    &LOAD_ARRIVALS,
    &LOAD_COMPLETIONS,
    &LOAD_PUBSUB_LAGGED,
    &LOAD_PUBSUB_NS,
    &LOAD_CACHE_NS,
    &LOAD_SOCKET_NS,
    &LOAD_THREADS_NS,
    &LOAD_SEM_NS,
];

/// The complete `docs/METRICS.md` document, generated from the
/// catalog. `figures --metrics-doc` prints this verbatim and a test
/// diffs it against the committed file, so the reference cannot drift
/// from the registry.
pub fn reference_doc() -> String {
    let mut doc = String::from(
        "# AmpNet metrics reference\n\
         \n\
         Every metric the workspace can register, one row per\n\
         `MetricDef` in `ampnet_telemetry::defs::ALL`. This file is\n\
         generated — regenerate with:\n\
         \n\
         ```text\n\
         cargo run -p ampnet-bench --bin figures -- --metrics-doc > docs/METRICS.md\n\
         ```\n\
         \n\
         A test (`tests/metrics_reference.rs`) diffs this table against\n\
         the catalog, so edits belong in `crates/telemetry/src/defs.rs`,\n\
         not here. The `node` column says whether the metric carries a\n\
         per-node label or is registered once per cluster/segment; the\n\
         `evidence` column points at the paper slide the metric\n\
         substantiates.\n\
         \n\
         | name | kind | unit | plane | node | evidence | help |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for def in ALL {
        doc.push_str(&def.doc_row());
        doc.push('\n');
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn catalog_names_are_unique() {
        let names: BTreeSet<_> = ALL.iter().map(|d| d.name).collect();
        assert_eq!(names.len(), ALL.len(), "duplicate metric name in defs::ALL");
    }

    #[test]
    fn catalog_positions_match_all() {
        for (i, def) in ALL.iter().enumerate() {
            assert_eq!(usize::from(def.position), i, "{} is declared out of place", def.name);
        }
    }

    #[test]
    fn doc_rows_are_wellformed() {
        for def in ALL {
            let row = def.doc_row();
            assert_eq!(row.matches('|').count(), 8, "bad row: {row}");
            assert!(row.contains(def.name));
            assert!(row.contains(def.evidence));
        }
    }
}
