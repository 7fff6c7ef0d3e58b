//! The four workloads. Every pass of a workload starts from a fresh
//! instance built from the seed, so all passes of one invocation do
//! bit-identical simulated work: the `sim_*` facts of a pass are pure
//! functions of (code, seed) and independent of how many passes the
//! time budget allowed.

use crate::spans::Spans;
use std::collections::BTreeMap;

pub mod chaos;
pub mod load;
pub mod multiseg;
pub mod ring;

/// What one pass did, on the simulated clock and in counts. Compared
/// for equality between passes, between the traced and the untraced
/// driver, and (default seed) against `golden.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct PassFacts {
    /// Operations completed (the unit of `ops_per_cal_s`).
    pub ops: u64,
    /// Operations attempted, for the failure ratio.
    pub attempted: u64,
    /// Operations failed, refused or lost.
    pub failed: u64,
    /// Simulated window the operations completed in, ns.
    pub sim_window_ns: u64,
    /// Typical simulated delay an operation sees, ns (see each
    /// workload for its definition).
    pub sim_delay_typical_ns: f64,
    /// Tail (or worst) simulated delay, ns.
    pub sim_delay_tail_ns: f64,
    /// Which percentile `sim_delay_tail_ns` is (100 = the maximum).
    pub tail_percentile: u32,
    /// Samples the two delays were taken over.
    pub delay_samples: u64,
    /// Digest of the pass's simulated outcome.
    pub digest: u64,
}

impl PassFacts {
    pub fn sim_ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.sim_window_ns as f64 * 1e-9)
    }
}

/// Per-layer counts and simulated statistics read from public
/// accessors after a traced pass, by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

pub struct PassOutput {
    pub facts: PassFacts,
    /// Output-check failures (empty = the pass's outputs are correct).
    pub errors: Vec<String>,
    /// Filled by the traced driver only.
    pub counts: Counts,
    /// Lines for the human-readable report (context beside a metric).
    pub notes: Vec<String>,
}

/// A workload instance that has been set up (constructed, workload
/// attached, booted) and is ready for its measured body.
pub trait Prepared {
    fn run(self: Box<Self>, spans: &mut Spans) -> PassOutput;
}

pub struct WorkloadDef {
    pub name: &'static str,
    /// Construct + attach + boot. With `traced`, telemetry is enabled
    /// through the engine's public switch and the harness records its
    /// spans and reads the per-layer counts.
    pub setup: fn(seed: u64, traced: bool, spans: &mut Spans) -> Box<dyn Prepared>,
}

pub const ALL: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "ring_saturated",
        setup: ring::setup,
    },
    WorkloadDef {
        name: "multiseg_scale",
        setup: multiseg::setup,
    },
    WorkloadDef {
        name: "chaos_heal",
        setup: chaos::setup,
    },
    WorkloadDef {
        name: "services_load",
        setup: load::setup,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    ALL.iter().find(|w| w.name == name)
}

/// Grouped-data quantile of a telemetry histogram (see
/// [`crate::stats::grouped_quantile`]); `bin` says which interval a
/// `Histogram::quantile` reading stands for.
pub(crate) fn hist_quantile(
    h: &ampnet_telemetry::Histogram,
    q: f64,
    bin: &dyn Fn(u64) -> (u64, u64),
) -> f64 {
    let n = h.count();
    // `Histogram::quantile(q)` returns the sample of rank ⌈q·n⌉.
    crate::stats::grouped_quantile(n, |rank| h.quantile((rank as f64 - 0.5) / n as f64), bin, q)
}

/// Sum of one counter over every node label of a snapshot, as `f64`.
pub(crate) fn counter(snap: &ampnet_telemetry::MetricsSnapshot, name: &str) -> f64 {
    snap.counter_total(name) as f64
}

/// Every node label's value of one gauge.
fn gauges<'a>(
    snap: &'a ampnet_telemetry::MetricsSnapshot,
    name: &'a str,
) -> impl Iterator<Item = f64> + 'a {
    snap.entries.iter().filter_map(move |e| match e.value {
        ampnet_telemetry::SnapValue::Gauge(g) if e.def.name == name => Some(g as f64),
        _ => None,
    })
}

/// Sum of one gauge over its node labels (`sum()` of nothing is -0.0).
pub(crate) fn gauge_sum(snap: &ampnet_telemetry::MetricsSnapshot, name: &str) -> f64 {
    gauges(snap, name).fold(0.0, |a, b| a + b)
}

/// Largest value of one gauge over its node labels.
pub(crate) fn gauge_max(snap: &ampnet_telemetry::MetricsSnapshot, name: &str) -> f64 {
    gauges(snap, name).fold(0.0, f64::max)
}

/// `(count, p99)` of a histogram metric (first label found).
pub(crate) fn hist_p99(snap: &ampnet_telemetry::MetricsSnapshot, name: &str) -> (u64, f64) {
    snap.entries
        .iter()
        .find_map(|e| match (e.def.name == name, e.value) {
            (true, ampnet_telemetry::SnapValue::Hist { count, p99, .. }) => {
                Some((count, p99 as f64))
            }
            _ => None,
        })
        .unwrap_or((0, 0.0))
}

/// The per-layer counts every workload can read from a metrics
/// snapshot, normalised per operation. Counters are differenced
/// against `before` (taken at the end of set-up) so they cover the
/// measured body only; gauges and histograms are read from `after`.
pub(crate) fn cluster_counts(
    before: &ampnet_telemetry::MetricsSnapshot,
    after: &ampnet_telemetry::MetricsSnapshot,
    ops: u64,
    counts: &mut Counts,
) {
    use crate::stats::ratio;
    let ops = ops as f64;
    let delta = |name: &str| counter(after, name) - counter(before, name);
    counts.insert("phy.tx_frames_per_op", ratio(delta("phy_tx_frames"), ops));
    counts.insert("ring.inserted_per_op", ratio(delta("mac_inserted"), ops));
    counts.insert("ring.forwarded_per_op", ratio(delta("mac_forwarded"), ops));
    counts.insert("ring.stripped_per_op", ratio(delta("mac_stripped"), ops));
    counts.insert("ring.backoffs", gauge_sum(after, "mac_backoffs"));
    counts.insert(
        "ring.transit_highwater_bytes",
        gauge_max(after, "mac_transit_highwater_bytes"),
    );
    counts.insert(
        "ring.access_wait_p99_ns",
        hist_p99(after, "ring_access_ns").1,
    );
    // Every acquired frame either reused a recycled slot or grew the
    // pool by one, so acquired = reused + slots.
    let reused = gauge_sum(after, "arena_frames_reused");
    counts.insert(
        "packet.arena_reuse_ratio",
        ratio(reused, reused + gauge_sum(after, "arena_frame_slots")),
    );
    counts.insert(
        "packet.arena_peak_live",
        gauge_sum(after, "arena_live_frames"),
    );
    counts.insert(
        "cache.updates_applied_per_op",
        ratio(delta("cache_updates_applied"), ops),
    );
    let busy = delta("cache_seqlock_reads_busy");
    counts.insert(
        "cache.seqlock_busy_ratio",
        ratio(busy, busy + delta("cache_seqlock_reads_ok")),
    );
    counts.insert(
        "cache.atomics_per_op",
        ratio(delta("cache_atomics_executed"), ops),
    );
    counts.insert(
        "cache.sem_acquire_p99_ns",
        hist_p99(after, "services_sem_acquire_ns").1,
    );
    counts.insert(
        "services.fragments_per_msg",
        ratio(delta("services_msg_fragments"), delta("services_msgs_sent")),
    );
    let episodes = counter(after, "membership_roster_episodes");
    counts.insert("roster.episodes", episodes);
    counts.insert(
        "topo.ring_size_final",
        gauge_sum(after, "membership_ring_size"),
    );
    let replayed = delta("transport_replayed_broadcasts") + delta("transport_replayed_unicasts");
    counts.insert(
        "core.replayed_per_episode",
        ratio(replayed, (episodes - 1.0).max(0.0)),
    );
    counts.insert(
        "core.stale_frames_released",
        delta("transport_stale_frames_released"),
    );
    // Absolute per-pass counts the attribution needs; `aux.*` names are
    // written to the trace file, not reported as metrics.
    counts.insert(
        "aux.boot_episodes",
        counter(before, "membership_roster_episodes"),
    );
    counts.insert("aux.seqlock_writes", delta("cache_seqlock_writes"));
    counts.insert("aux.seqlock_reads", busy + delta("cache_seqlock_reads_ok"));
    counts.insert("aux.msgs_sent", delta("services_msgs_sent"));
    counts.insert("aux.msgs_assembled", delta("services_msgs_assembled"));
}
