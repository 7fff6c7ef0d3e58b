//! `ampnet-lint` — the workspace static-analysis engine.
//!
//! AmpNet's availability story rests on its protocol state machines
//! being deterministic functions of their inputs, on the data plane
//! staying allocation-free, and on protocol code not panicking
//! mid-storm. All three are invariants the repo already pays for
//! dynamically (digest equality tests, alloc-count tests, chaos
//! sweeps, the model checker); this crate makes them hold
//! *statically*, before a refactor ever reaches those harnesses.
//!
//! The engine is dependency-free by necessity (crates.io is
//! unreachable from the build environment — no `syn`): a hand-rolled
//! [`lexer`] produces a spanned token stream with the full literal
//! grammar handled exactly, a shallow item [`scan`] tracks `use … as`
//! aliases / test regions / allow comments, and the [`rules`]
//! catalogue walks the result. The grep lint this replaces could be
//! evaded by aliasing an import and had a documented bug where a
//! `//` inside a string literal truncated the scan; both are
//! structurally impossible here.
//!
//! Three enforcement points run the same [`policy::REPO_POLICY`]:
//! the tier-1 test `tests/determinism_lint.rs`, `figures --lint`
//! (committed `LINT_report.json`), and the CI `lint` job.

pub mod lexer;
pub mod policy;
pub mod report;
pub mod rules;
pub mod scan;

pub use policy::{lint_source, rule_set_for, run_workspace, Policy, REPO_POLICY};
pub use report::{AllowRecord, Report};
pub use rules::{Finding, RuleSet, RULE_IDS};

/// One row of the rule catalogue, rendered into `docs/LINTS.md`.
pub struct RuleDoc {
    /// Diagnostic id (`nondeterminism`, …).
    pub id: &'static str,
    /// Where the rule runs under the repo policy.
    pub scope: &'static str,
    /// Why the invariant is worth a lint.
    pub rationale: &'static str,
    /// A minimal offending snippet.
    pub example: &'static str,
    /// What the diagnostic tells you to do instead.
    pub fix: &'static str,
}

/// The catalogue behind `docs/LINTS.md`, in diagnostic order.
pub const RULE_DOCS: &[RuleDoc] = &[
    RuleDoc {
        id: "nondeterminism",
        scope: "src/ of every sim-facing crate (tests included); float equality additionally on digest-path modules",
        rationale: "Seeded runs must replay bit-identically: Serial \u{2261} Threads(n) digests, byte-stable reports and the model checker all assume every state machine is a pure function of its inputs. Hashed iteration order, wall-clock reads, ambient entropy and host probes each inject schedule noise; float equality on a digest path turns rounding into digest drift. The rule is alias-aware: `use std::collections::HashMap as Map` carries the ban to `Map`.",
        example: "use std::collections::HashMap as Map;\nlet seen: Map<u64, u32> = Map::new();",
        fix: "Use BTreeMap/BTreeSet or a Vec; take SimTime as an argument; derive a SimRng substream from the scenario seed; fold integers (or to_bits()) into digests.",
    },
    RuleDoc {
        id: "hot-path-alloc",
        scope: "declared hot-path modules: the ring planes, the event core, the telemetry record path",
        rationale: "PR 2 took the data plane from 1.20 to 0.0022 allocs/packet and PR 3 kept the telemetry record path at zero; the bench guard catches regressions at run time, after the fact. This rule rejects the allocating constructs themselves — vec!, Vec::new, .to_vec(), format!, Box::new, String::from, .clone() — so a new allocation on the hot path fails review before it fails the bench.",
        example: "fn on_arrival(&mut self, f: WireFrame) {\n    self.backlog.push(f.payload.to_vec());\n}",
        fix: "Preallocate at construction, reuse a scratch buffer, or borrow; constructors and cold diagnostics carry a justified allow.",
    },
    RuleDoc {
        id: "panic-freedom",
        scope: "src/ of the sim-facing protocol crates (tests excluded)",
        rationale: "A panic inside a protocol state machine takes the whole simulated cluster down with it — the failover engine cannot roster around its own process dying. unwrap/expect/panic!/unreachable!/todo!/unimplemented! are therefore only acceptable where the state is provably impossible or aborting is the designed response, and each site must say which.",
        example: "let heir = self.roster.heir_of(node).unwrap();",
        fix: "Return an error or propagate an Option; where the state really is impossible, keep the call and justify it in a scoped allow.",
    },
    RuleDoc {
        id: "allow-audit",
        scope: "every scanned file",
        rationale: "The escape hatch polices itself: an allow must name a real rule and carry a non-empty justification, and an allow that no longer suppresses anything is itself a finding — the opt-out catalogue cannot outlive the code it excused.",
        example: "let t = x.unwrap(); // lint: allow(panics)",
        fix: "Name a rule from this table and justify it: // lint: allow(panic-freedom): <why>. Delete allows the engine reports as unused.",
    },
];

/// Render `docs/LINTS.md`. Pinned byte-for-byte by
/// `tests/lints_reference.rs`; regenerate with
/// `cargo run -p ampnet-bench --bin figures -- --lints-doc`.
pub fn reference_doc() -> String {
    let mut out = String::new();
    out.push_str("# Lint catalogue\n\n");
    out.push_str(
        "Generated by `ampnet_lint::reference_doc()` — do not edit by hand.\n\
         Regenerate with:\n\n\
         ```\n\
         cargo run -p ampnet-bench --release --bin figures -- --lints-doc > docs/LINTS.md\n\
         ```\n\n\
         `ampnet-lint` is the workspace's dependency-free static-analysis\n\
         engine: a hand-rolled spanned lexer (string/raw-string/char\n\
         literals, nested block comments and lifetimes handled exactly), a\n\
         shallow item scan (`use … as` alias tracking, test regions, allow\n\
         comments) and the rule catalogue below. It runs identically in\n\
         three places: the tier-1 test `tests/determinism_lint.rs`,\n\
         `figures --lint` (committed `LINT_report.json`), and the CI\n\
         `lint` job. The gate is zero unjustified findings, workspace-wide.\n\n\
         ## Escape hatch\n\n\
         A line may opt out of one rule with a scoped comment naming the\n\
         rule and a non-empty justification — trailing on the line itself,\n\
         or alone on the line directly above it:\n\n\
         ```rust\n\
         enc.encode(Symbol::Ctrl(K28_5)).expect(\"K28.5 is valid\"), // lint: allow(panic-freedom): K28.5 is a valid control symbol by definition\n\
         ```\n\n\
         Allows are audited: unknown rule ids, empty justifications and\n\
         allows that no longer suppress anything are findings themselves.\n\n\
         ## Rules\n\n",
    );
    for d in RULE_DOCS {
        out.push_str(&format!("### `{}`\n\n", d.id));
        out.push_str(&format!("**Scope.** {}\n\n", d.scope));
        out.push_str(&format!("**Why.** {}\n\n", d.rationale));
        out.push_str("**Example finding.**\n\n```rust\n");
        out.push_str(d.example);
        out.push_str("\n```\n\n");
        out.push_str(&format!("**Fix.** {}\n\n", d.fix));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_docs_cover_every_rule_id() {
        let doc_ids: Vec<&str> = RULE_DOCS.iter().map(|d| d.id).collect();
        assert_eq!(doc_ids, RULE_IDS);
    }

    #[test]
    fn reference_doc_mentions_every_rule() {
        let doc = reference_doc();
        for id in RULE_IDS {
            assert!(doc.contains(&format!("### `{id}`")), "missing {id}");
        }
    }
}
