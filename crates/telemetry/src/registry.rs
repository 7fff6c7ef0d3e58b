//! Metric handles and the cold side of the registry.
//!
//! A handle is the dense `u32` index of an instrument's first cell in
//! the registry's `Cells` (`cells.rs`), so `inc`/`add`/`set`/`record`
//! never come here. What lives here runs under the registry mutex, at
//! setup and export time only: which `(metric, node)` owns which cells,
//! in registration order, and how those cells are read back into a
//! snapshot or folded across shards.
//!
//! Every lookup indexes by a def's catalog position (its index in
//! [`crate::defs::ALL`]): finding an instrument is one array index.

use crate::cells::{Cells, HIST_CELLS};
use crate::defs;
use crate::hist::Histogram;
use crate::metric::{MetricDef, MetricKind};
use crate::snapshot::{MetricsSnapshot, SnapValue, SnapshotEntry};

/// Node label on a per-node instrument; [`GLOBAL`] for cluster-wide ones.
pub const GLOBAL: u8 = u8::MAX;

/// Catalog positions: the width of every position-indexed table here.
const POSITIONS: usize = defs::ALL.len();

/// `def`'s catalog position.
fn position(def: &MetricDef) -> usize {
    usize::from(def.position)
}

/// Where `(def, node)` sits in [`MetricsRegistry`]'s index: row 0 is
/// [`GLOBAL`]'s, row `node + 1` a node's, one column per position.
fn slot(def: &MetricDef, node: u8) -> usize {
    usize::from(node.wrapping_add(1)) * POSITIONS + position(def)
}

macro_rules! handle {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Inert handle: recording through it is a no-op. Returned
            /// by disabled [`crate::Telemetry`] instances so call sites
            /// never need an `Option`.
            pub const NONE: $name = $name(u32::MAX);
        }

        impl Default for $name {
            fn default() -> Self {
                $name::NONE
            }
        }
    };
}

handle!(
    /// Handle to a registered counter.
    CounterHandle
);
handle!(
    /// Handle to a registered gauge.
    GaugeHandle
);
handle!(
    /// Handle to a registered histogram.
    HistHandle
);

/// An instrument's value, read out of its cells.
#[derive(Debug)]
enum Value {
    Counter(u64),
    Gauge(i64),
    Hist(Histogram),
}

impl Value {
    fn snap(&self) -> SnapValue {
        match self {
            Value::Counter(c) => SnapValue::Counter(*c),
            Value::Gauge(g) => SnapValue::Gauge(*g),
            Value::Hist(h) => SnapValue::Hist {
                count: h.count(),
                sum: h.sum(),
                min: h.min(),
                max: h.max(),
                p50: h.p50(),
                p99: h.p99(),
            },
        }
    }
}

#[derive(Debug)]
struct Instrument {
    def: &'static MetricDef,
    node: u8,
    /// First cell: the only one for a counter or gauge, the start of a
    /// [`HIST_CELLS`] block for a histogram.
    cell: u32,
}

impl Instrument {
    fn value(&self, cells: &Cells) -> Value {
        match self.def.kind {
            MetricKind::Counter => Value::Counter(cells.load(self.cell)),
            MetricKind::Gauge => Value::Gauge(cells.load(self.cell) as i64),
            MetricKind::Histogram => Value::Hist(cells.histogram(self.cell)),
        }
    }
}

/// Which instrument owns which cells, for one cluster or segment.
///
/// Iteration order (and therefore snapshot order) is registration
/// order, which the instrumented stack performs deterministically —
/// that is what makes same-seed snapshot bytes identical.
#[derive(Debug, Default)]
pub(crate) struct MetricsRegistry {
    instruments: Vec<Instrument>,
    /// `(def, node)` → first cell, at [`slot`]; `u32::MAX` where
    /// nothing is registered yet. Rows are added when a node above
    /// every earlier one first registers.
    by_key: Vec<u32>,
    /// First cell no instrument owns yet.
    next_cell: u32,
}

impl MetricsRegistry {
    /// Register (or look up) `def` at `node` and return its first cell.
    /// `node` labels per-node instruments; pass [`GLOBAL`] for
    /// cluster-wide ones. `kind` is how the caller's handle type will
    /// record: asking for a def of another kind is a bug (debug builds
    /// assert) and yields the inert `NONE` index.
    pub(crate) fn register(
        &mut self,
        cells: &Cells,
        def: &'static MetricDef,
        node: u8,
        kind: MetricKind,
    ) -> u32 {
        debug_assert_eq!(def.kind, kind, "{} is not a {}", def.name, kind.as_str());
        if def.kind != kind {
            return u32::MAX;
        }
        let at = slot(def, node);
        if at >= self.by_key.len() {
            self.by_key.resize((at / POSITIONS + 1) * POSITIONS, u32::MAX);
        }
        let known = self.by_key[at];
        if known != u32::MAX {
            return known;
        }
        let len = match kind {
            MetricKind::Histogram => HIST_CELLS,
            MetricKind::Counter | MetricKind::Gauge => 1,
        };
        #[expect(
            clippy::expect_used,
            reason = "2^32 cells is a configuration explosion; fail at registration, which is the cold path"
        )]
        let cell = cells.reserve(self.next_cell, len).expect("registry overflow");
        self.next_cell = cell + len as u32;
        self.instruments.push(Instrument { def, node, cell });
        self.by_key[at] = cell;
        cell
    }

    /// The distinct [`MetricDef`]s registered so far, in first-seen
    /// order. Used by the docs-sync test to prove the full-stack
    /// exercise touches every catalog entry.
    pub(crate) fn registered_defs(&self) -> Vec<&'static MetricDef> {
        let mut seen = [false; POSITIONS];
        self.instruments
            .iter()
            .map(|inst| inst.def)
            .filter(|&def| !std::mem::replace(&mut seen[position(def)], true))
            .collect()
    }

    /// Point-in-time snapshot of every instrument, in registration
    /// order. Deterministic given deterministic registration/recording.
    pub(crate) fn snapshot(&self, cells: &Cells) -> MetricsSnapshot {
        let entries = self
            .instruments
            .iter()
            .map(|inst| SnapshotEntry {
                def: inst.def,
                node: (inst.node != GLOBAL).then_some(inst.node),
                value: inst.value(cells).snap(),
            })
            .collect();
        MetricsSnapshot { entries }
    }
}

/// Cross-shard fold behind [`crate::Telemetry::merge_shards`]: one
/// [`GLOBAL`] entry per [`MetricDef`], in first-seen order across
/// successive [`Merged::fold`] calls, so folding per-shard registries
/// in shard order yields a deterministic merged snapshot.
#[derive(Debug)]
pub(crate) struct Merged {
    entries: Vec<(&'static MetricDef, Value)>,
    /// Catalog position → index into `entries`.
    by_def: [Option<usize>; POSITIONS],
}

impl Default for Merged {
    fn default() -> Self {
        Merged { entries: Vec::new(), by_def: [None; POSITIONS] }
    }
}

impl Merged {
    /// Fold one registry in: counters and gauges sum, histograms
    /// bucket-merge.
    pub(crate) fn fold(&mut self, registry: &MetricsRegistry, cells: &Cells) {
        for inst in &registry.instruments {
            let value = inst.value(cells);
            let seen = &mut self.by_def[position(inst.def)];
            let Some(at) = *seen else {
                *seen = Some(self.entries.len());
                self.entries.push((inst.def, value));
                continue;
            };
            // One position is one def, so the kinds always pair up.
            match (&mut self.entries[at].1, value) {
                (Value::Counter(acc), Value::Counter(c)) => *acc += c,
                (Value::Gauge(acc), Value::Gauge(g)) => *acc = acc.saturating_add(g),
                (Value::Hist(acc), Value::Hist(h)) => acc.merge(&h),
                _ => {}
            }
        }
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let entries = self
            .entries
            .iter()
            .map(|(def, value)| SnapshotEntry { def, node: None, value: value.snap() })
            .collect();
        MetricsSnapshot { entries }
    }
}

#[cfg(test)]
mod tests;
