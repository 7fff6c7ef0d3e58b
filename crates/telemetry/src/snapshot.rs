//! Point-in-time export of a [`Telemetry`](crate::Telemetry) registry.
//!
//! The JSON writer is hand-rolled and emits only integers in registration order, so a snapshot of a
//! deterministic run is byte-identical across same-seed executions —
//! pinned by a test and consumed by `figures --metrics`.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

use crate::metric::MetricDef;

/// Value of one instrument at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram summary (integer fields only, for byte-stable JSON).
    Hist {
        /// Samples recorded.
        count: u64,
        /// Sum of all samples.
        sum: u128,
        /// Smallest sample (0 when empty).
        min: u64,
        /// Largest sample.
        max: u64,
        /// Median (bucket lower bound).
        p50: u64,
        /// 99th percentile (bucket lower bound).
        p99: u64,
    },
}

/// One instrument in a snapshot.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotEntry {
    /// The static catalog entry this instrument instantiates.
    pub def: &'static MetricDef,
    /// Node label, `None` for cluster-wide instruments.
    pub node: Option<u8>,
    /// Captured value.
    pub value: SnapValue,
}

/// A full registry snapshot, in registration order.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// All instrument entries.
    pub entries: Vec<SnapshotEntry>,
}

impl MetricsSnapshot {
    /// Look up an entry by metric name and node label.
    pub fn get(&self, name: &str, node: Option<u8>) -> Option<&SnapshotEntry> {
        self.entries
            .iter()
            .find(|e| e.def.name == name && e.node == node)
    }

    /// Sum of one counter metric across all nodes.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.def.name == name)
            .map(|e| match e.value {
                SnapValue::Counter(c) => c,
                _ => 0,
            })
            .sum()
    }

    /// Serialise to JSON. Hand-rolled, integers only, registration
    /// order — byte-identical for identical registry states.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.entries.len() * 96);
        out.push_str("{\n  \"snapshot\": \"ampnet_metrics\",\n");
        out.push_str(&format!("  \"instruments\": {},\n", self.entries.len()));
        out.push_str("  \"metrics\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"kind\": \"{}\", \"unit\": \"{}\", \"plane\": \"{}\", \"node\": {}, ",
                e.def.name,
                e.def.kind.as_str(),
                e.def.unit.as_str(),
                e.def.plane.as_str(),
                match e.node {
                    Some(n) => n.to_string(),
                    None => "null".to_string(),
                },
            ));
            match e.value {
                SnapValue::Counter(c) => out.push_str(&format!("\"value\": {c}}}")),
                SnapValue::Gauge(g) => out.push_str(&format!("\"value\": {g}}}")),
                SnapValue::Hist { count, sum, min, max, p50, p99 } => {
                    out.push_str(&format!(
                        "\"count\": {count}, \"sum\": {sum}, \"min\": {min}, \"max\": {max}, \"p50\": {p50}, \"p99\": {p99}}}"
                    ));
                }
            }
            out.push_str(if i + 1 < self.entries.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{defs, Telemetry, GLOBAL};

    #[test]
    fn json_is_deterministic_and_integer_only() {
        let build = || {
            let tel = Telemetry::new(1);
            let c = tel.counter(&defs::MAC_INSERTED, 2);
            let g = tel.gauge(&defs::MAC_WOULD_DROP, 2);
            let h = tel.histogram(&defs::RING_TOUR_NS, GLOBAL);
            tel.add(c, 7);
            tel.set(g, 0);
            for i in 1..=100 {
                tel.record(h, i * 1000);
            }
            tel.snapshot().to_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same construction must serialise identically");
        assert!(a.contains("\"name\": \"mac_inserted\""));
        assert!(a.contains("\"node\": 2"));
        assert!(a.contains("\"node\": null"));
        assert!(!a.contains('.'), "snapshot JSON must be integer-only:\n{a}");
    }

    #[test]
    fn lookup_helpers() {
        let tel = Telemetry::new(1);
        tel.add(tel.counter(&defs::MAC_INSERTED, 0), 3);
        tel.add(tel.counter(&defs::MAC_INSERTED, 1), 4);
        let snap = tel.snapshot();
        assert_eq!(snap.counter_total("mac_inserted"), 7);
        assert!(snap.get("mac_inserted", Some(1)).is_some());
        assert!(snap.get("mac_inserted", Some(9)).is_none());
    }
}
