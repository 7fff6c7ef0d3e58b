//! Breadth-first explicit-state exploration with FNV-64 dedup and
//! shortest-path counterexample reconstruction.
//!
//! BFS visits states in depth order, so the first violation found is a
//! shortest one; its trace is rebuilt from parent pointers and printed
//! in the same `[ … ] label detail` style as the chaos engine's
//! flight-recorder dump, one line per action.

use crate::model::{Model, Property, PropertyKind};
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Exploration limits.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Stop (incomplete) after this many distinct states.
    pub max_states: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            max_states: 1_000_000,
        }
    }
}

/// One step of a counterexample: the action taken (empty for the
/// initial state) and the resulting state, both pre-formatted.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// Action label, empty for step 0.
    pub action: String,
    /// State summary after the action.
    pub state: String,
}

/// A property violation with its shortest witnessing path.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The violated property.
    pub property: &'static str,
    /// Why the final state is a violation ("predicate false", or the
    /// panic message when real crate code asserted).
    pub reason: String,
    /// Initial state plus one entry per action.
    pub steps: Vec<TraceStep>,
}

impl Counterexample {
    /// Render in the flight-recorder dump style: a header line, then
    /// one `[ step ]` line per event.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== counterexample: {} ({} steps) ===",
            self.property,
            self.steps.len().saturating_sub(1)
        );
        for (i, s) in self.steps.iter().enumerate() {
            let label = if i == 0 { "(init)" } else { s.action.as_str() };
            let _ = writeln!(out, "[{:>8}] {:<28} {}", format!("step {i}"), label, s.state);
        }
        let _ = writeln!(out, "violation: {}", self.reason);
        out
    }
}

/// Outcome of one exploration run.
#[derive(Debug)]
pub struct CheckReport {
    /// Distinct states visited (post symmetry/time quotient).
    pub visited: usize,
    /// Transitions taken (including ones into already-seen states).
    pub transitions: usize,
    /// Depth of the deepest visited state.
    pub max_depth: usize,
    /// Terminal (action-less) states seen.
    pub terminals: usize,
    /// `true` when the full bounded state space fit under
    /// [`CheckOptions::max_states`].
    pub complete: bool,
    /// First violation found, if any (shortest by BFS order).
    pub violation: Option<Counterexample>,
}

impl CheckReport {
    /// No violation and the space was fully explored.
    pub fn passed(&self) -> bool {
        self.violation.is_none() && self.complete
    }

    /// One-line summary for harness output.
    pub fn summary(&self, name: &str) -> String {
        format!(
            "{name}: {} states, {} transitions, depth {}, {} terminal — {}",
            self.visited,
            self.transitions,
            self.max_depth,
            self.terminals,
            if self.violation.is_some() {
                "VIOLATION"
            } else if self.complete {
                "ok (exhaustive)"
            } else {
                "ok (budget hit, incomplete)"
            }
        )
    }
}

struct Node<M: Model> {
    state: M::State,
    parent: Option<(usize, M::Action)>,
    depth: usize,
}

/// Explore `model`'s bounded state space breadth-first.
pub fn check<M: Model>(model: &M, opts: CheckOptions) -> CheckReport {
    let props = model.properties();
    let safety: Vec<&Property<M>> = props
        .iter()
        .filter(|p| p.kind == PropertyKind::Always)
        .collect();
    let terminal_props: Vec<&Property<M>> = props
        .iter()
        .filter(|p| p.kind == PropertyKind::AlwaysTerminal)
        .collect();
    let eventually: Vec<&Property<M>> = props
        .iter()
        .filter(|p| p.kind == PropertyKind::Eventually)
        .collect();
    let mut eventually_met = vec![false; eventually.len()];

    let mut nodes: Vec<Node<M>> = Vec::new();
    let mut seen = BTreeSet::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut report = CheckReport {
        visited: 0,
        transitions: 0,
        max_depth: 0,
        terminals: 0,
        complete: true,
        violation: None,
    };

    let admit = |state: M::State,
                     parent: Option<(usize, M::Action)>,
                     nodes: &mut Vec<Node<M>>,
                     queue: &mut VecDeque<usize>,
                     seen: &mut BTreeSet<u64>|
     -> Option<usize> {
        let fp = model.fingerprint(&state);
        if !seen.insert(fp) {
            return None;
        }
        let depth = parent.as_ref().map(|&(p, _)| nodes[p].depth + 1).unwrap_or(0);
        nodes.push(Node {
            state,
            parent,
            depth,
        });
        queue.push_back(nodes.len() - 1);
        Some(nodes.len() - 1)
    };

    for s in model.initial_states() {
        admit(s, None, &mut nodes, &mut queue, &mut seen);
    }
    // Check the initial states before exploring.
    for i in 0..nodes.len() {
        if let Some(v) = check_state(model, &nodes, i, &safety, &eventually, &mut eventually_met) {
            report.visited = nodes.len();
            report.violation = Some(v);
            return report;
        }
    }

    let mut actions = Vec::new();
    while let Some(i) = queue.pop_front() {
        report.max_depth = report.max_depth.max(nodes[i].depth);
        actions.clear();
        model.actions(&nodes[i].state, &mut actions);
        if actions.is_empty() {
            report.terminals += 1;
            for p in &terminal_props {
                if !(p.check)(model, &nodes[i].state) {
                    report.visited = nodes.len();
                    report.violation = Some(build_trace(
                        model,
                        &nodes,
                        i,
                        p.name,
                        "terminal state fails the property".into(),
                    ));
                    return report;
                }
            }
            continue;
        }
        for a in actions.drain(..) {
            report.transitions += 1;
            let next = catch_unwind(AssertUnwindSafe(|| model.next_state(&nodes[i].state, &a)));
            let next = match next {
                Ok(s) => s,
                Err(payload) => {
                    // Real crate code fired an assertion (e.g. the
                    // arena's "stale FrameRef"): that *is* the
                    // counterexample.
                    let msg = panic_message(payload.as_ref());
                    let mut cx =
                        build_trace(model, &nodes, i, "no-panic", format!("panic: {msg}"));
                    cx.steps.push(TraceStep {
                        action: model.format_action(&a),
                        state: "⟂ (panicked)".into(),
                    });
                    report.visited = nodes.len();
                    report.violation = Some(cx);
                    return report;
                }
            };
            if let Some(j) = admit(next, Some((i, a)), &mut nodes, &mut queue, &mut seen) {
                if let Some(v) =
                    check_state(model, &nodes, j, &safety, &eventually, &mut eventually_met)
                {
                    report.visited = nodes.len();
                    report.violation = Some(v);
                    return report;
                }
                if nodes.len() >= opts.max_states {
                    report.complete = false;
                    report.visited = nodes.len();
                    return report;
                }
            }
        }
    }

    report.visited = nodes.len();
    for (k, p) in eventually.iter().enumerate() {
        if !eventually_met[k] {
            report.violation = Some(Counterexample {
                property: p.name,
                reason: "no reachable state satisfies the property".into(),
                steps: nodes
                    .first()
                    .map(|n| {
                        vec![TraceStep {
                            action: String::new(),
                            state: model.format_state(&n.state),
                        }]
                    })
                    .unwrap_or_default(),
            });
            return report;
        }
    }
    report
}

fn check_state<M: Model>(
    model: &M,
    nodes: &[Node<M>],
    i: usize,
    safety: &[&Property<M>],
    eventually: &[&Property<M>],
    eventually_met: &mut [bool],
) -> Option<Counterexample> {
    let state = &nodes[i].state;
    for (k, p) in eventually.iter().enumerate() {
        if !eventually_met[k] && (p.check)(model, state) {
            eventually_met[k] = true;
        }
    }
    for p in safety {
        let holds = catch_unwind(AssertUnwindSafe(|| (p.check)(model, state)));
        match holds {
            Ok(true) => {}
            Ok(false) => {
                return Some(build_trace(
                    model,
                    nodes,
                    i,
                    p.name,
                    "property predicate is false".into(),
                ))
            }
            Err(payload) => {
                return Some(build_trace(
                    model,
                    nodes,
                    i,
                    p.name,
                    format!("panic while checking: {}", panic_message(payload.as_ref())),
                ))
            }
        }
    }
    None
}

fn build_trace<M: Model>(
    model: &M,
    nodes: &[Node<M>],
    end: usize,
    property: &'static str,
    reason: String,
) -> Counterexample {
    let mut chain = Vec::new();
    let mut cur = end;
    loop {
        chain.push(cur);
        match nodes[cur].parent {
            Some((p, _)) => cur = p,
            None => break,
        }
    }
    chain.reverse();
    let steps = chain
        .iter()
        .map(|&i| TraceStep {
            action: nodes[i]
                .parent
                .as_ref()
                .map(|(_, a)| model.format_action(a))
                .unwrap_or_default(),
            state: model.format_state(&nodes[i].state),
        })
        .collect();
    Counterexample {
        property,
        reason,
        steps,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FnvHasher, PropertyKind};
    use std::hash::{Hash, Hasher};

    /// A counter that increments mod `n`; violation when it reaches a
    /// forbidden value.
    struct Wrap {
        n: u8,
        forbidden: Option<u8>,
        panic_at: Option<u8>,
    }

    impl Model for Wrap {
        type State = u8;
        type Action = ();

        fn initial_states(&self) -> Vec<u8> {
            vec![0]
        }

        fn actions(&self, s: &u8, out: &mut Vec<()>) {
            if *s + 1 < self.n {
                out.push(());
            }
        }

        fn next_state(&self, s: &u8, _a: &()) -> u8 {
            if Some(*s + 1) == self.panic_at {
                panic!("hit the tripwire");
            }
            *s + 1
        }

        fn fingerprint(&self, s: &u8) -> u64 {
            let mut h = FnvHasher::new();
            s.hash(&mut h);
            h.finish()
        }

        fn properties(&self) -> Vec<Property<Self>> {
            let mut ps = vec![
                Property {
                    name: "below-forbidden",
                    kind: PropertyKind::Always,
                    check: |m: &Wrap, s: &u8| Some(*s) != m.forbidden,
                },
                Property {
                    name: "terminal-is-max",
                    kind: PropertyKind::AlwaysTerminal,
                    check: |m: &Wrap, s: &u8| *s + 1 == m.n,
                },
            ];
            ps.push(Property {
                name: "reaches-two",
                kind: PropertyKind::Eventually,
                check: |_m: &Wrap, s: &u8| *s == 2,
            });
            ps
        }

        fn format_action(&self, _a: &()) -> String {
            "tick".into()
        }

        fn format_state(&self, s: &u8) -> String {
            format!("count={s}")
        }
    }

    #[test]
    fn explores_chain_exhaustively() {
        let m = Wrap {
            n: 5,
            forbidden: None,
            panic_at: None,
        };
        let r = check(&m, CheckOptions::default());
        assert!(r.passed(), "{:?}", r.violation.map(|v| v.render()));
        assert_eq!(r.visited, 5);
        assert_eq!(r.terminals, 1);
        assert_eq!(r.max_depth, 4);
    }

    #[test]
    fn safety_violation_yields_shortest_trace() {
        let m = Wrap {
            n: 10,
            forbidden: Some(3),
            panic_at: None,
        };
        let r = check(&m, CheckOptions::default());
        let v = r.violation.expect("must violate");
        assert_eq!(v.property, "below-forbidden");
        // init + 3 ticks.
        assert_eq!(v.steps.len(), 4);
        let rendered = v.render();
        assert!(rendered.contains("counterexample: below-forbidden"));
        assert!(rendered.contains("count=3"));
        assert!(rendered.contains("step 3"));
    }

    #[test]
    fn panic_becomes_counterexample() {
        let m = Wrap {
            n: 10,
            forbidden: None,
            panic_at: Some(4),
        };
        let r = check(&m, CheckOptions::default());
        let v = r.violation.expect("panic must be caught");
        assert_eq!(v.property, "no-panic");
        assert!(v.reason.contains("tripwire"));
        assert!(v.render().contains("⟂"));
    }

    #[test]
    fn eventually_unmet_is_reported() {
        let m = Wrap {
            n: 2, // never reaches 2: states are 0, 1
            forbidden: None,
            panic_at: None,
        };
        let r = check(&m, CheckOptions::default());
        let v = r.violation.expect("liveness must fail");
        assert_eq!(v.property, "reaches-two");
    }

    #[test]
    fn budget_stops_incomplete() {
        let m = Wrap {
            n: 100,
            forbidden: None,
            panic_at: None,
        };
        let r = check(&m, CheckOptions { max_states: 10 });
        assert!(!r.complete);
        assert!(!r.passed());
        assert!(r.violation.is_none());
        assert!(r.summary("wrap").contains("incomplete"));
    }
}
