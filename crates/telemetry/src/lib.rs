//! Per-plane observability for the AmpNet reproduction: a zero-alloc
//! hot-path metrics registry plus a bounded flight recorder.
//!
//! The paper's claims are availability claims — lossless all-to-all
//! (slide 8), sub-millisecond rostering (slide 16), seqlock-coherent
//! caching (slide 9) — and this crate is how the reproduction *shows*
//! them happening. Two instruments, one clock:
//!
//! * the metrics registry — counters, gauges and log-linear
//!   [`Histogram`]s behind dense `u32` handles. Registration (setup
//!   time) allocates and takes the registry mutex; recording (hot path)
//!   is a load and a store on an atomic cell the handle indexes — no
//!   lock, no read-modify-write, no allocation.
//! * the flight recorder — a preallocated ring of the last N plane
//!   events on the simulated clock, dumped as a correlated timeline
//!   when a chaos invariant fails (or on demand).
//!
//! Both live behind [`Telemetry`], a cheaply-clonable handle that every
//! layer of a cluster shares. A disabled `Telemetry` (the default) is
//! a single `None` check per call — the PR 2 allocation benchmark
//! stays at its committed allocs/packet with telemetry compiled in.
//!
//! # Example
//!
//! ```
//! use ampnet_telemetry::{defs, FlightEvent, FlightKind, Plane, Telemetry};
//!
//! let tel = Telemetry::new(64); // flight ring of 64 events
//! let inserted = tel.counter(&defs::MAC_INSERTED, 0); // node 0
//! tel.inc(inserted);
//! tel.add(inserted, 2);
//! tel.flight(FlightEvent {
//!     at_ns: 1_500,
//!     node: 0,
//!     plane: Plane::Mac,
//!     kind: FlightKind::MacInsert,
//!     a: 3,   // destination
//!     b: 48,  // wire bytes
//! });
//!
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter_total("mac_inserted"), 3);
//! assert!(snap.to_json().contains("\"mac_inserted\""));
//! assert!(tel.flight_dump().contains("insert -> node 3"));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

mod cells;
pub mod defs;
mod hist;
mod metric;
mod recorder;
mod registry;
mod snapshot;

pub use hist::Histogram;
pub use metric::{MetricDef, MetricKind, Plane, Unit};
pub use recorder::{FlightEvent, FlightKind};
pub use registry::{CounterHandle, GaugeHandle, HistHandle, GLOBAL};
pub use snapshot::{MetricsSnapshot, SnapValue, SnapshotEntry};

use cells::{Cells, FlightRing};
use registry::{Merged, MetricsRegistry};
use std::sync::{Arc, Mutex, MutexGuard};

/// One registry + flight recorder: the cells the record path writes
/// without a lock, and the cold index of who owns which cells.
#[derive(Debug)]
struct Shared {
    cells: Cells,
    flight: FlightRing,
    registry: Mutex<MetricsRegistry>,
}

impl Shared {
    /// Lock the cold side. Poisoning can only happen if a panic
    /// unwound mid-registration; the index is pushed to only after the
    /// cells exist, so it is still coherent — keep serving it rather
    /// than double-panicking.
    fn registry(&self) -> MutexGuard<'_, MetricsRegistry> {
        self.registry.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn register(&self, def: &'static MetricDef, node: u8, kind: MetricKind) -> u32 {
        self.registry().register(&self.cells, def, node, kind)
    }
}

/// Shared handle to one registry + flight recorder.
///
/// Cloning is cheap (one `Arc` bump) and every clone records into the
/// same registry, which is how a cluster's PHY, MAC, cache and service
/// layers share a single correlated timeline. The default instance is
/// *disabled*: every operation is a single branch and no storage
/// exists, so instrumentation can stay compiled into hot paths.
///
/// All methods take `&self` (interior mutability), so read-only layers
/// — e.g. seqlock readers holding `&NetworkCache` — can still count.
///
/// The handle is `Send + Sync` so a whole cluster (which owns clones of
/// it) can be advanced on a worker thread of the sharded multi-segment
/// engine, under a **single-writer rule**: at most one thread records
/// into a registry at a time, and a hand-off to another thread
/// synchronises (the engine's scoped-thread join does). The recording
/// methods — [`inc`](Self::inc), [`add`](Self::add), [`set`](Self::set),
/// [`record`](Self::record), [`flight`](Self::flight) — rely on it:
/// each is a relaxed load and store on atomic cells, with no lock and no
/// atomic read-modify-write, so two threads recording into the *same*
/// registry at once would lose updates (never memory safety). One
/// registry per shard keeps the rule and the determinism discipline at
/// once; cross-shard views are produced after the join with
/// [`Telemetry::merge_shards`], which folds the per-shard registries in
/// shard order. Registration and export may be called from any thread
/// at any time; they serialise on a mutex the record path never takes.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Shared>>,
}

impl Telemetry {
    /// Enabled telemetry with a flight ring of `flight_capacity` events
    /// (which must be > 0).
    pub fn new(flight_capacity: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Shared {
                cells: Cells::new(),
                flight: FlightRing::new(flight_capacity),
                registry: Mutex::default(),
            })),
        }
    }

    /// Disabled telemetry: all operations are no-ops.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register (or look up) a counter; [`CounterHandle::NONE`] when disabled.
    pub fn counter(&self, def: &'static MetricDef, node: u8) -> CounterHandle {
        match &self.inner {
            Some(shared) => CounterHandle(shared.register(def, node, MetricKind::Counter)),
            None => CounterHandle::NONE,
        }
    }

    /// Register (or look up) a gauge; [`GaugeHandle::NONE`] when disabled.
    pub fn gauge(&self, def: &'static MetricDef, node: u8) -> GaugeHandle {
        match &self.inner {
            Some(shared) => GaugeHandle(shared.register(def, node, MetricKind::Gauge)),
            None => GaugeHandle::NONE,
        }
    }

    /// Register (or look up) a histogram; [`HistHandle::NONE`] when disabled.
    pub fn histogram(&self, def: &'static MetricDef, node: u8) -> HistHandle {
        match &self.inner {
            Some(shared) => HistHandle(shared.register(def, node, MetricKind::Histogram)),
            None => HistHandle::NONE,
        }
    }

    /// Increment a counter by one. Zero-alloc, no-op when disabled.
    #[inline]
    pub fn inc(&self, h: CounterHandle) {
        self.add(h, 1);
    }

    /// Add `n` to a counter. Zero-alloc, no-op when disabled.
    #[inline]
    pub fn add(&self, h: CounterHandle, n: u64) {
        if let Some(shared) = &self.inner {
            shared.cells.add(h.0, n);
        }
    }

    /// Set a gauge. Zero-alloc, no-op when disabled.
    #[inline]
    pub fn set(&self, h: GaugeHandle, v: i64) {
        if let Some(shared) = &self.inner {
            shared.cells.set(h.0, v as u64);
        }
    }

    /// Record a histogram sample. Zero-alloc, no-op when disabled.
    #[inline]
    pub fn record(&self, h: HistHandle, sample: u64) {
        if let Some(shared) = &self.inner {
            shared.cells.record(h.0, sample);
        }
    }

    /// Append a flight event. Zero-alloc, no-op when disabled.
    #[inline]
    pub fn flight(&self, ev: FlightEvent) {
        if let Some(shared) = &self.inner {
            shared.flight.record(ev);
        }
    }

    /// Snapshot the registry (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner
            .as_ref()
            .map(|shared| shared.registry().snapshot(&shared.cells))
            .unwrap_or_default()
    }

    /// Distinct [`MetricDef`]s registered so far (empty when disabled).
    pub fn registered_defs(&self) -> Vec<&'static MetricDef> {
        self.inner
            .as_ref()
            .map(|shared| shared.registry().registered_defs())
            .unwrap_or_default()
    }

    /// Render the flight-recorder timeline (empty string when disabled).
    pub fn flight_dump(&self) -> String {
        self.inner
            .as_ref()
            .map(|shared| recorder::dump(&shared.flight))
            .unwrap_or_default()
    }

    /// Events currently retained by the flight recorder.
    pub fn flight_len(&self) -> usize {
        self.inner.as_ref().map_or(0, |shared| shared.flight.len())
    }

    /// Total flight events ever recorded (including overwritten ones).
    pub fn flight_recorded(&self) -> u64 {
        self.inner.as_ref().map_or(0, |shared| shared.flight.recorded())
    }

    /// Deterministic cross-shard aggregate: fold every shard's registry
    /// — in slice order — into one snapshot of cluster-of-clusters
    /// totals. Per-instrument values of the same [`MetricDef`] are
    /// combined across shards and nodes into a single [`GLOBAL`] entry
    /// (counters and gauges sum, histograms bucket-merge); entry order
    /// is first-registration order across the fold, so two runs that
    /// recorded the same per-shard streams produce byte-identical
    /// [`MetricsSnapshot::to_json`] output regardless of how many
    /// worker threads advanced the shards. Disabled handles contribute
    /// nothing.
    pub fn merge_shards(shards: &[Telemetry]) -> MetricsSnapshot {
        let mut acc = Merged::default();
        for shared in shards.iter().filter_map(|shard| shard.inner.as_ref()) {
            acc.fold(&shared.registry(), &shared.cells);
        }
        acc.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert_everywhere() {
        let tel = Telemetry::disabled();
        assert!(!tel.enabled());
        let c = tel.counter(&defs::MAC_INSERTED, 0);
        assert_eq!(c, CounterHandle::NONE);
        tel.inc(c);
        tel.flight(FlightEvent::default());
        assert!(tel.snapshot().entries.is_empty());
        assert!(tel.flight_dump().is_empty());
        assert_eq!(tel.flight_recorded(), 0);
    }

    #[test]
    fn clones_share_one_registry() {
        let tel = Telemetry::new(16);
        let clone = tel.clone();
        let c = tel.counter(&defs::MAC_INSERTED, 0);
        let same = clone.counter(&defs::MAC_INSERTED, 0);
        assert_eq!(c, same);
        tel.inc(c);
        clone.add(same, 2);
        assert_eq!(tel.snapshot().counter_total("mac_inserted"), 3);
        assert_eq!(clone.snapshot().counter_total("mac_inserted"), 3);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Telemetry::default().enabled());
    }

    #[test]
    fn none_handles_are_inert_on_an_enabled_registry() {
        let tel = Telemetry::new(4);
        let real = tel.counter(&defs::MAC_INSERTED, 0);
        tel.add(CounterHandle::NONE, 99);
        tel.set(GaugeHandle::NONE, -5);
        tel.record(HistHandle::NONE, 123);
        tel.add(real, 2);
        let snap = tel.snapshot();
        assert_eq!(snap.entries.len(), 1, "a NONE handle registers nothing");
        assert_eq!(snap.entries[0].value, SnapValue::Counter(2));
    }

    #[test]
    fn gauges_keep_their_sign() {
        let tel = Telemetry::new(4);
        let g = tel.gauge(&defs::MAC_WOULD_DROP, 0);
        tel.set(g, -7);
        assert_eq!(tel.snapshot().entries[0].value, SnapValue::Gauge(-7));
    }

    fn ev(at_ns: u64) -> FlightEvent {
        FlightEvent { at_ns, ..FlightEvent::default() }
    }

    /// The single-writer rule in use: thread A records and is joined,
    /// then thread B records through the same handles. The join is the
    /// only synchronisation, and every total is exact.
    #[test]
    fn writer_hand_off_between_threads_is_exact() {
        const N: u64 = 10_000;
        let tel = Telemetry::new(64);
        let c = tel.counter(&defs::MAC_FORWARDED, 1);
        let g = tel.gauge(&defs::MAC_BACKOFFS, 1);
        let h = tel.histogram(&defs::RING_TOUR_NS, GLOBAL);
        let writer = |base: u64| {
            let tel = tel.clone();
            move || {
                for i in 1..=N {
                    tel.inc(c);
                    tel.add(c, 2);
                    tel.set(g, (base + i) as i64);
                    tel.record(h, base + i);
                    tel.flight(ev(base + i));
                }
            }
        };
        std::thread::scope(|s| {
            s.spawn(writer(0));
        });
        std::thread::scope(|s| {
            s.spawn(writer(N));
        });

        let snap = tel.snapshot();
        let value = |name| snap.get(name, Some(1)).unwrap().value;
        assert_eq!(value("mac_forwarded"), SnapValue::Counter(2 * N * 3));
        assert_eq!(value("mac_backoffs"), SnapValue::Gauge(2 * N as i64));
        let mut plain = Histogram::new();
        (1..=2 * N).for_each(|v| plain.record(v));
        match snap.get("ring_tour_ns", None).unwrap().value {
            SnapValue::Hist { count, sum, min, max, p50: _, p99 } => {
                assert_eq!((count, sum), (2 * N, u128::from(N * (2 * N + 1))));
                assert_eq!((min, max, p99), (1, 2 * N, plain.p99()));
            }
            ref v => panic!("expected hist, got {v:?}"),
        }
        assert_eq!(tel.flight_recorded(), 2 * N);
        assert_eq!(tel.flight_len(), 64);
        let dump = tel.flight_dump();
        assert!(dump.contains(&format!("{} dropped to wraparound", 2 * N - 64)), "{dump}");
        assert!(dump.ends_with(&format!("[{:>12} ns] node   - phy        -\n", 2 * N)), "{dump}");
    }

    /// Storage grows chunk by chunk as registrations arrive; instruments
    /// on both sides of a growth boundary (and a histogram block pushed
    /// past one) record and snapshot independently.
    #[test]
    fn instruments_past_a_growth_boundary_record_and_snapshot() {
        let tel = Telemetry::new(1);
        // 250 nodes x 20 counter defs = 5000 single-cell instruments.
        let counter_defs: Vec<_> = defs::ALL
            .iter()
            .filter(|d| d.kind == MetricKind::Counter)
            .take(20)
            .collect();
        assert_eq!(counter_defs.len(), 20);
        let mut counters = vec![];
        for node in 0..250u8 {
            for def in &counter_defs {
                counters.push(tel.counter(def, node));
            }
        }
        // Cells 5000.. : the first block still fits the second chunk
        // (2048..6144), the second has to skip to the third.
        let early = tel.histogram(&defs::RING_TOUR_NS, GLOBAL);
        let late = tel.histogram(&defs::RING_ACCESS_NS, GLOBAL);
        let after = tel.counter(&defs::LOAD_ARRIVALS, GLOBAL);
        assert_eq!((early.0, late.0), (5000, 6144));

        for (i, c) in counters.iter().enumerate() {
            tel.add(*c, i as u64);
        }
        for v in 1..=100 {
            tel.record(early, v);
            tel.record(late, 1000 * v);
        }
        tel.inc(after);

        let snap = tel.snapshot();
        assert_eq!(snap.entries.len(), 5003);
        for (i, e) in snap.entries[..5000].iter().enumerate() {
            assert_eq!(e.value, SnapValue::Counter(i as u64), "instrument {i}");
        }
        let hist = |name| match snap.get(name, None).unwrap().value {
            SnapValue::Hist { count, sum, min, max, .. } => (count, sum, min, max),
            ref v => panic!("expected hist, got {v:?}"),
        };
        assert_eq!(hist("ring_tour_ns"), (100, 5050, 1, 100));
        assert_eq!(hist("ring_access_ns"), (100, 5_050_000, 1000, 100_000));
        assert_eq!(snap.entries[5002].value, SnapValue::Counter(1), "the counter after them");
    }

    #[test]
    fn merge_shards_folds_enabled_shards_into_global_entries() {
        let shards = [Telemetry::new(1), Telemetry::disabled(), Telemetry::new(1)];
        let [first, _, last] = &shards;
        first.add(first.counter(&defs::MAC_INSERTED, 0), 3);
        first.set(first.gauge(&defs::MAC_WOULD_DROP, 0), 2);
        first.record(first.histogram(&defs::RING_TOUR_NS, GLOBAL), 100);
        last.add(last.counter(&defs::MAC_INSERTED, 5), 4);
        last.set(last.gauge(&defs::MAC_WOULD_DROP, 5), -1);
        last.record(last.histogram(&defs::RING_TOUR_NS, GLOBAL), 900);

        let snap = Telemetry::merge_shards(&shards);
        // One GLOBAL entry per def, in first-seen order.
        let names: Vec<_> = snap.entries.iter().map(|e| e.def.name).collect();
        assert_eq!(names, ["mac_inserted", "mac_would_drop", "ring_tour_ns"]);
        assert!(snap.entries.iter().all(|e| e.node.is_none()));
        assert_eq!(snap.entries[0].value, SnapValue::Counter(7));
        assert_eq!(snap.entries[1].value, SnapValue::Gauge(1));
        match snap.entries[2].value {
            SnapValue::Hist { count, min, max, .. } => assert_eq!((count, min, max), (2, 100, 900)),
            ref v => panic!("expected hist, got {v:?}"),
        }
    }

    #[test]
    fn merge_shards_lists_defs_in_first_seen_order() {
        let counters: Vec<&'static MetricDef> = defs::ALL
            .iter()
            .copied()
            .filter(|d| d.kind == MetricKind::Counter)
            .collect();
        let (head, tail) = counters.split_at(counters.len() / 2);
        let shards = [Telemetry::new(1), Telemetry::new(1)];
        // The first shard sees the first half backwards; the second
        // sees every counter forwards, at two nodes.
        for &def in head.iter().rev() {
            shards[0].inc(shards[0].counter(def, 0));
        }
        for node in [3, 4] {
            for &def in &counters {
                shards[1].inc(shards[1].counter(def, node));
            }
        }
        let snap = Telemetry::merge_shards(&shards);
        let merged: Vec<_> = snap.entries.iter().map(|e| e.def.name).collect();
        let first_seen: Vec<_> = head.iter().rev().chain(tail).map(|d| d.name).collect();
        assert_eq!(merged, first_seen);
        // A counter of the first half was bumped once by each shard's
        // nodes: 1 + 2; one of the second half only by the second's.
        for (i, entry) in snap.entries.iter().enumerate() {
            let want = if i < head.len() { 3 } else { 2 };
            assert_eq!(entry.value, SnapValue::Counter(want), "{}", entry.def.name);
        }
    }
}
