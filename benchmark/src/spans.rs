//! In-memory span recorder for the traced run.
//!
//! The harness wraps its own calls into the program — `setup` → `boot`,
//! then per pass `inject`, `advance`, `drain`, `verify` — in spans
//! `{name, start, end, parent, pass}`. Spans are kept in a `Vec` and
//! written out once, when the run ends. A span's *self time* is its
//! duration minus the part of it its direct children cover, so the
//! self times of a tree add up to the root's duration.

use std::time::Instant;

/// One closed (or still open) span. Times are nanoseconds since the
/// recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Pass the span belongs to (0 = before the first pass).
    pub pass: u32,
}

/// Recorder: a span stack over a monotonic clock. When disabled every
/// call is a branch and nothing else, so the untraced run pays nothing.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: vec![],
            open: vec![],
            pass: 0,
        }
    }

    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.iter().rev().nth(1).copied(),
            pass: self.pass,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// Run `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the time its direct
/// children cover. Children never overlap (the recorder is a stack),
/// so covered time is the plain sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
        }
    }
    own
}

/// Total self time, in seconds, of all spans called `name` in the
/// passes `keep` selects.
pub fn self_seconds(spans: &[Span], name: &str, keep: impl Fn(u32) -> bool) -> f64 {
    let own = self_times_ns(spans);
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name && keep(s.pass))
        .fold(0.0, |acc, (_, ns)| acc + ns as f64 * 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // pass [0,100) ⊃ inject [10,20), advance [20,80) ⊃ inner [30,50), drain [80,95)
        let spans = vec![
            span("pass", 0, 100, None),
            span("inject", 10, 20, Some(0)),
            span("advance", 20, 80, Some(0)),
            span("inner", 30, 50, Some(2)),
            span("drain", 80, 95, Some(0)),
        ];
        let own = self_times_ns(&spans);
        // Grandchildren are charged to their parent only: pass loses
        // 10 + 60 + 15, not the inner 20 again.
        assert_eq!(own, vec![15, 10, 40, 20, 15]);
        assert_eq!(
            own.iter().sum::<u64>(),
            100,
            "self times add up to the root"
        );
        assert!((self_seconds(&spans, "advance", |_| true) - 40e-9).abs() < 1e-18);
        assert_eq!(self_seconds(&spans, "advance", |pass| pass == 2), 0.0);
    }

    #[test]
    fn same_name_spans_accumulate() {
        let spans = vec![
            span("advance", 0, 10, None),
            span("advance", 10, 25, None),
            span("drain", 25, 30, None),
        ];
        assert!((self_seconds(&spans, "advance", |_| true) - 25e-9).abs() < 1e-18);
        assert_eq!(self_seconds(&spans, "verify", |_| true), 0.0);
    }

    #[test]
    fn recorder_builds_the_parent_chain() {
        let mut rec = Spans::new(true);
        rec.set_pass(3);
        rec.enter("setup");
        rec.scope("boot", || ());
        rec.exit();
        rec.scope("advance", || ());
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("setup", None));
        assert_eq!((s[1].name, s[1].parent), ("boot", Some(0)));
        assert_eq!((s[2].name, s[2].parent), ("advance", None));
        assert!(s.iter().all(|x| x.pass == 3 && x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[1].end_ns, "parent closes after its child");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Spans::new(false);
        rec.scope("advance", || ());
        assert!(rec.spans().is_empty());
    }
}
