//! Lightweight event tracing.
//!
//! Subsystems log milestone events (roster phase changes, failover
//! decisions) into a bounded ring buffer. Tracing is off by default and
//! costs one branch when disabled, so it can stay compiled into release
//! simulations.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

use crate::digest::Fnv64;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;

/// Severity of a trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Fine-grained protocol events.
    Debug,
    /// Milestones (roster phases, failover decisions).
    Info,
    /// Anomalies (drops, disparity errors, timeouts).
    Warn,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::Debug => write!(f, "DEBUG"),
            Level::Info => write!(f, "INFO"),
            Level::Warn => write!(f, "WARN"),
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Simulated time of the event.
    pub at: SimTime,
    /// Severity.
    pub level: Level,
    /// Emitting subsystem (static label, e.g. "roster").
    pub subsystem: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}] {:5} {:<8} {}",
            self.at.to_string(),
            self.level,
            self.subsystem,
            self.message
        )
    }
}

/// Bounded trace ring buffer.
#[derive(Debug)]
pub struct Trace {
    entries: VecDeque<TraceEntry>,
    capacity: usize,
    min_level: Option<Level>,
    dropped: u64,
    digest: u64,
    accepted: u64,
}

impl Trace {
    /// A disabled trace: all `log` calls are no-ops.
    pub fn disabled() -> Self {
        Trace {
            entries: VecDeque::new(),
            capacity: 0,
            min_level: None,
            dropped: 0,
            digest: Fnv64::new().finish(),
            accepted: 0,
        }
    }

    /// An enabled trace retaining the most recent `capacity` entries at
    /// or above `min_level`.
    pub fn enabled(capacity: usize, min_level: Level) -> Self {
        Trace {
            entries: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            min_level: Some(min_level),
            dropped: 0,
            digest: Fnv64::new().finish(),
            accepted: 0,
        }
    }

    /// Whether entries at `level` would be recorded.
    #[inline]
    pub fn wants(&self, level: Level) -> bool {
        matches!(self.min_level, Some(min) if level >= min)
    }

    /// Record an entry. Callers on hot paths should guard with
    /// [`Trace::wants`] to avoid building the message string.
    pub fn log(&mut self, at: SimTime, level: Level, subsystem: &'static str, message: String) {
        if !self.wants(level) {
            return;
        }
        // Fold into the running digest before any capacity eviction so
        // the digest covers every accepted entry, not just the retained
        // window.
        let mut h = Fnv64::from_state(self.digest);
        h.fold_u64(at.0)
            .fold_u8(level as u8)
            .fold(subsystem.as_bytes())
            .fold(message.as_bytes());
        self.digest = h.finish();
        self.accepted += 1;
        if self.capacity == 0 {
            // Digest only: the entry is accepted and evicted at once.
            self.dropped += 1;
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(TraceEntry {
            at,
            level,
            subsystem,
            message,
        });
    }

    /// FNV-64 digest over every accepted entry (time, level, subsystem,
    /// message), in log order. Independent of the capacity bound — two
    /// traces that accepted the same entry stream have the same digest
    /// even if one evicted more aggressively. Used by the chaos engine
    /// as a deterministic replay fingerprint.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Total entries accepted (including ones since evicted).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Render all retained entries, one per line (oldest first).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!("{e}\n"));
        }
        out
    }

    /// Entries currently retained, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Number of entries evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Trace::disabled();
        t.log(SimTime(1), Level::Warn, "ring", "x".into());
        assert!(t.is_empty());
        assert!(!t.wants(Level::Warn));
    }

    #[test]
    fn level_filtering() {
        let mut t = Trace::enabled(10, Level::Info);
        t.log(SimTime(1), Level::Debug, "ring", "nope".into());
        t.log(SimTime(2), Level::Info, "ring", "yes".into());
        t.log(SimTime(3), Level::Warn, "ring", "also".into());
        assert_eq!(t.len(), 2);
        assert!(t.wants(Level::Warn));
        assert!(!t.wants(Level::Debug));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut t = Trace::enabled(3, Level::Debug);
        for i in 0..5u64 {
            t.log(SimTime(i), Level::Info, "x", format!("m{i}"));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let first = t.entries().next().unwrap();
        assert_eq!(first.message, "m2");
    }

    #[test]
    fn zero_capacity_keeps_the_digest_and_retains_nothing() {
        let mut none = Trace::enabled(0, Level::Debug);
        let mut large = Trace::enabled(1000, Level::Debug);
        for i in 0..100u64 {
            none.log(SimTime(i), Level::Info, "x", format!("m{i}"));
            large.log(SimTime(i), Level::Info, "x", format!("m{i}"));
        }
        assert_eq!(none.len(), 0);
        assert_eq!(none.accepted(), 100);
        assert_eq!(none.dropped(), 100);
        assert_eq!(none.digest(), large.digest());
    }

    #[test]
    fn digest_is_eviction_independent() {
        let mut small = Trace::enabled(2, Level::Debug);
        let mut large = Trace::enabled(100, Level::Debug);
        for i in 0..10u64 {
            small.log(SimTime(i), Level::Info, "x", format!("m{i}"));
            large.log(SimTime(i), Level::Info, "x", format!("m{i}"));
        }
        assert!(small.dropped() > 0);
        assert_eq!(large.dropped(), 0);
        assert_eq!(small.digest(), large.digest());
        assert_eq!(small.accepted(), 10);
    }

    #[test]
    fn digest_sensitive_to_content() {
        let mut a = Trace::enabled(10, Level::Debug);
        let mut b = Trace::enabled(10, Level::Debug);
        a.log(SimTime(1), Level::Info, "x", "one".into());
        b.log(SimTime(1), Level::Info, "x", "two".into());
        assert_ne!(a.digest(), b.digest());

        let mut c = Trace::enabled(10, Level::Debug);
        let mut d = Trace::enabled(10, Level::Debug);
        c.log(SimTime(1), Level::Info, "x", "one".into());
        d.log(SimTime(2), Level::Info, "x", "one".into());
        assert_ne!(c.digest(), d.digest());
    }

    #[test]
    fn dump_renders_lines() {
        let mut t = Trace::enabled(10, Level::Debug);
        t.log(SimTime(1), Level::Info, "ring", "hello".into());
        t.log(SimTime(2), Level::Warn, "ring", "world".into());
        let s = t.dump();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("hello"));
    }

    #[test]
    fn display_formats() {
        let e = TraceEntry {
            at: SimTime(1500),
            level: Level::Warn,
            subsystem: "roster",
            message: "link down".into(),
        };
        let s = format!("{e}");
        assert!(s.contains("WARN"));
        assert!(s.contains("roster"));
        assert!(s.contains("link down"));
    }
}
