//! Static metric identity: kind, unit, plane and the [`MetricDef`]
//! catalog entry that ties a metric name to its documentation row.
//!
//! Every metric the workspace can ever register is declared once, as a
//! `&'static MetricDef` in [`crate::defs`]. Instrumentation sites hand
//! that def to [`crate::Telemetry`] at registration time; the def is
//! also the unit of documentation — `docs/METRICS.md` is literally the
//! concatenation of [`MetricDef::doc_row`] over [`crate::defs::ALL`],
//! enforced by a test.

/// What kind of instrument a metric is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing event count.
    Counter,
    /// Last-written value (sampled, may go up or down).
    Gauge,
    /// Log-linear distribution of `u64` samples.
    Histogram,
}

impl MetricKind {
    /// Lower-case name used in snapshots and the metrics reference.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Unit of a metric's value (or of histogram samples).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Wire frames.
    Frames,
    /// Micro-packets.
    Packets,
    /// Bytes.
    Bytes,
    /// Discrete events.
    Events,
    /// Nanoseconds of simulated time.
    Nanos,
    /// Cache records.
    Records,
    /// Read attempts.
    Reads,
    /// Executed operations.
    Ops,
    /// Datagram messages.
    Messages,
    /// Cluster nodes.
    Nodes,
    /// Roster epochs.
    Epochs,
    /// Arena frame slots.
    Slots,
}

impl Unit {
    /// Lower-case name used in snapshots and the metrics reference.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Frames => "frames",
            Unit::Packets => "packets",
            Unit::Bytes => "bytes",
            Unit::Events => "events",
            Unit::Nanos => "ns",
            Unit::Records => "records",
            Unit::Reads => "reads",
            Unit::Ops => "ops",
            Unit::Messages => "messages",
            Unit::Nodes => "nodes",
            Unit::Epochs => "epochs",
            Unit::Slots => "slots",
        }
    }
}

/// Which layer of the stack a metric (or flight event) belongs to.
///
/// Mirrors the plane split: `SerialPhy` → `RegisterMac` inside one
/// node's `NodeStack`, then the delivery boundary where a frame leaves
/// the ring for the host, with transport/membership above the ring and
/// the cache/services planes above those.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Plane {
    /// Serialisation, hop latency, error bursts (`SerialPhy`).
    Phy,
    /// Register-insertion decisions (`RegisterMac`).
    Mac,
    /// Frames the MAC hands to this node's host (`NodeStack` counts
    /// them; what the host does with them belongs to the ring driver).
    Delivery,
    /// Frame arena, replay and per-hop scheduling (`ampnet-core`).
    Transport,
    /// Roster episodes, joins, error-burst escalation.
    Membership,
    /// Network cache updates, seqlock and atomics (`ampnet-cache`).
    Cache,
    /// Messaging and semaphore services (`ampnet-services`).
    Services,
    /// The sharded conservative-PDES engine itself: slice planning,
    /// exchange elision, quiescent-shard accounting (`ampnet-core`'s
    /// multi-segment coordinator).
    Pdes,
    /// The workload engine's modeled client populations: per-class
    /// offered/completed operations and end-to-end latency
    /// (`ampnet-load`).
    Load,
}

impl Plane {
    /// Every plane in declaration order, so `ALL[p as usize] == p`:
    /// how a flight event's packed plane code is read back.
    pub(crate) const ALL: [Plane; 9] = [
        Plane::Phy,
        Plane::Mac,
        Plane::Delivery,
        Plane::Transport,
        Plane::Membership,
        Plane::Cache,
        Plane::Services,
        Plane::Pdes,
        Plane::Load,
    ];

    /// Lower-case name used in snapshots and the metrics reference.
    pub fn as_str(self) -> &'static str {
        match self {
            Plane::Phy => "phy",
            Plane::Mac => "mac",
            Plane::Delivery => "delivery",
            Plane::Transport => "transport",
            Plane::Membership => "membership",
            Plane::Cache => "cache",
            Plane::Services => "services",
            Plane::Pdes => "pdes",
            Plane::Load => "load",
        }
    }
}

/// Static identity of one metric: the single source of truth for its
/// name, shape and documentation.
///
/// Only [`crate::defs`] builds one: the private `position` field keeps
/// every def in the catalog.
#[derive(Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Index in [`crate::defs::ALL`]: the registry looks an instrument
    /// up by this position.
    pub(crate) position: u16,
    /// Unique snake_case metric name.
    pub name: &'static str,
    /// Instrument kind.
    pub kind: MetricKind,
    /// Unit of the value (or of histogram samples).
    pub unit: Unit,
    /// Plane the metric instruments.
    pub plane: Plane,
    /// Whether the metric is registered once per node (`true`) or once
    /// per cluster/segment (`false`).
    pub per_node: bool,
    /// One-line description (shows up verbatim in `docs/METRICS.md`).
    pub help: &'static str,
    /// Paper slide / section this metric evidences.
    pub evidence: &'static str,
}

impl MetricDef {
    /// The `docs/METRICS.md` table row for this metric. The reference
    /// doc is generated from these rows (`figures --metrics-doc`) and a
    /// test diffs the committed file against them, so the doc cannot
    /// drift from the registry.
    pub fn doc_row(&self) -> String {
        format!(
            "| `{}` | {} | {} | {} | {} | {} | {} |",
            self.name,
            self.kind.as_str(),
            self.unit.as_str(),
            self.plane.as_str(),
            if self.per_node { "node" } else { "—" },
            self.evidence,
            self.help,
        )
    }
}
