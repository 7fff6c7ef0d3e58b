//! Metric handles and the cold side of the registry.
//!
//! A handle is the dense `u32` index of an instrument's first cell in
//! the registry's `Cells` (`cells.rs`), so `inc`/`add`/`set`/`record`
//! never come here. What lives here runs under the registry mutex, at
//! setup and export time only: which `(metric, node)` owns which cells,
//! in registration order, and how those cells are read back into a
//! snapshot or folded across shards.

use crate::cells::{Cells, HIST_CELLS};
use crate::hist::Histogram;
use crate::metric::{MetricDef, MetricKind};
use crate::snapshot::{MetricsSnapshot, SnapValue, SnapshotEntry};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// Node label on a per-node instrument; [`GLOBAL`] for cluster-wide ones.
pub const GLOBAL: u8 = u8::MAX;

/// A metric's identity: the address of its `static` [`MetricDef`].
/// Every def is a distinct `static` in [`crate::defs`] and no two share
/// a name (`defs::tests::catalog_names_are_unique`), so identity and
/// name pick out the same metric, but identity compares as one integer.
/// A def built anywhere else is a metric of its own, whatever its name.
/// It is a lookup key only: nothing iterates in its order.
fn identity(def: &'static MetricDef) -> usize {
    std::ptr::from_ref(def) as usize
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
    /// `(identity, node)` → first cell.
    by_key: BTreeMap<(usize, u8), u32>,
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
        let slot = match self.by_key.entry((identity(def), node)) {
            Entry::Occupied(known) => return *known.get(),
            Entry::Vacant(slot) => slot,
        };
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
        *slot.insert(cell)
    }

    /// The distinct [`MetricDef`]s registered so far, in first-seen
    /// order. Used by the docs-sync test to prove the full-stack
    /// exercise touches every catalog entry.
    pub(crate) fn registered_defs(&self) -> Vec<&'static MetricDef> {
        let mut seen = BTreeSet::new();
        self.instruments
            .iter()
            .map(|inst| inst.def)
            .filter(|&def| seen.insert(identity(def)))
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
#[derive(Debug, Default)]
pub(crate) struct Merged {
    entries: Vec<(&'static MetricDef, Value)>,
    /// Identity → index into `entries`.
    by_def: BTreeMap<usize, usize>,
}

impl Merged {
    /// Fold one registry in: counters and gauges sum, histograms
    /// bucket-merge.
    pub(crate) fn fold(&mut self, registry: &MetricsRegistry, cells: &Cells) {
        for inst in &registry.instruments {
            let value = inst.value(cells);
            let at = match self.by_def.entry(identity(inst.def)) {
                Entry::Occupied(known) => *known.get(),
                Entry::Vacant(slot) => {
                    slot.insert(self.entries.len());
                    self.entries.push((inst.def, value));
                    continue;
                }
            };
            // One identity is one def, so the kinds always pair up.
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
mod tests {
    use super::*;
    use crate::defs;

    fn register(
        reg: &mut MetricsRegistry,
        cells: &Cells,
        def: &'static MetricDef,
        node: u8,
    ) -> u32 {
        reg.register(cells, def, node, def.kind)
    }

    #[test]
    fn registration_is_idempotent() {
        let (mut reg, cells) = (MetricsRegistry::default(), Cells::new());
        let a = register(&mut reg, &cells, &defs::MAC_INSERTED, 3);
        let b = register(&mut reg, &cells, &defs::MAC_INSERTED, 3);
        let c = register(&mut reg, &cells, &defs::MAC_INSERTED, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(reg.instruments.len(), 2);
        assert_eq!(reg.registered_defs().len(), 1);
    }

    #[test]
    fn a_histogram_owns_a_block_and_a_scalar_one_cell() {
        let (mut reg, cells) = (MetricsRegistry::default(), Cells::new());
        let c = register(&mut reg, &cells, &defs::MAC_INSERTED, 0);
        let h = register(&mut reg, &cells, &defs::RING_TOUR_NS, GLOBAL);
        let g = register(&mut reg, &cells, &defs::MAC_WOULD_DROP, 0);
        assert_eq!((c, h, g), (0, 1, 1 + HIST_CELLS as u32));
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn a_handle_of_the_wrong_kind_is_inert() {
        let (mut reg, cells) = (MetricsRegistry::default(), Cells::new());
        let cell = reg.register(&cells, &defs::MAC_INSERTED, 0, MetricKind::Histogram);
        assert_eq!(cell, u32::MAX);
        assert!(reg.snapshot(&cells).entries.is_empty());
    }

    #[test]
    fn snapshot_orders_by_registration() {
        let (mut reg, cells) = (MetricsRegistry::default(), Cells::new());
        register(&mut reg, &cells, &defs::MAC_STRIPPED, 1);
        register(&mut reg, &cells, &defs::MAC_WOULD_DROP, 1);
        register(&mut reg, &cells, &defs::RING_TOUR_NS, GLOBAL);
        let snap = reg.snapshot(&cells);
        let names: Vec<_> = snap.entries.iter().map(|e| e.def.name).collect();
        assert_eq!(
            names,
            ["mac_stripped", "mac_would_drop", "ring_tour_ns"]
        );
        assert_eq!(snap.entries[0].node, Some(1));
        assert_eq!(snap.entries[2].node, None);
    }

    #[test]
    fn every_def_registers_once_per_node() {
        let (mut reg, cells) = (MetricsRegistry::default(), Cells::new());
        let nodes = [GLOBAL, 0, 7];
        let register_all = |reg: &mut MetricsRegistry| -> Vec<u32> {
            nodes
                .iter()
                .flat_map(|&node| defs::ALL.iter().map(move |&def| (def, node)))
                .map(|(def, node)| register(reg, &cells, def, node))
                .collect()
        };
        let first = register_all(&mut reg);
        let again = register_all(&mut reg);
        assert_eq!(first, again, "a second registration hands back the same cells");
        let distinct: BTreeSet<u32> = first.iter().copied().collect();
        assert_eq!(distinct.len(), nodes.len() * defs::ALL.len());
        assert_eq!(reg.instruments.len(), first.len());
        let names: Vec<_> = reg.registered_defs().iter().map(|d| d.name).collect();
        let catalog: Vec<_> = defs::ALL.iter().map(|d| d.name).collect();
        assert_eq!(names, catalog);
    }

    #[test]
    fn snapshot_lists_every_def_in_registration_order() {
        let (mut reg, cells) = (MetricsRegistry::default(), Cells::new());
        // Reversed and node-interleaved, so neither catalog, name nor
        // address order can pass for registration order.
        let order: Vec<(&'static MetricDef, u8)> = defs::ALL
            .iter()
            .rev()
            .enumerate()
            .map(|(i, &def)| (def, if i % 2 == 0 { GLOBAL } else { (i % 5) as u8 }))
            .collect();
        for &(def, node) in &order {
            register(&mut reg, &cells, def, node);
        }
        for &(def, node) in order.iter().rev() {
            register(&mut reg, &cells, def, node);
        }
        let listed: Vec<_> = reg
            .snapshot(&cells)
            .entries
            .iter()
            .map(|e| (e.def.name, e.node.unwrap_or(GLOBAL)))
            .collect();
        let registered: Vec<_> = order.iter().map(|&(def, node)| (def.name, node)).collect();
        assert_eq!(listed, registered);
    }
}
