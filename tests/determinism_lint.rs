//! Tier-1 workspace lint gate: zero unjustified findings.
//!
//! This used to be a grep over sim-facing crates for nondeterminism
//! tokens. It is now a thin wrapper over `ampnet-lint`, the token-
//! level static-analysis engine, which runs the full rule catalogue
//! (`docs/LINTS.md`): R1 `nondeterminism` (alias-aware, float
//! equality on digest paths), R2 `hot-path-alloc`, R3
//! `panic-freedom`, plus the allow audit that keeps the opt-out
//! catalogue honest. The same engine and policy
//! back `figures --lint` (committed `LINT_report.json`) and the CI
//! `lint` job — this test is the copy that runs on every
//! `cargo test`.
//!
//! Two evasions the grep suffered are regression-tested here at the
//! engine level: a `//` inside a string literal truncated the scan
//! (hiding banned tokens to its right), and `use HashMap as Map`
//! renamed a ban away entirely.

use ampnet::lint::{lint_source, run_workspace, RuleSet, REPO_POLICY};
use std::path::Path;
use std::time::Instant; // lint: allow(nondeterminism): wall-clock here only times the lint itself (root tests are outside the scanned tree)

#[test]
fn workspace_lint_gate_zero_unjustified_findings() {
    let started = Instant::now();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = run_workspace(root, &REPO_POLICY).expect("workspace walk succeeds");

    // The walk actually covered the workspace (catches a policy or
    // walker regression silently scanning nothing).
    assert!(
        report.files_scanned > 100,
        "scanned only {} files — the workspace walk looks broken",
        report.files_scanned
    );
    assert!(
        !report.allows.is_empty(),
        "zero used allows — the allow plumbing looks broken"
    );

    let findings: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        findings.is_empty(),
        "{} unjustified lint finding(s) — fix, or add a scoped \
         `// lint: allow(<rule-id>): <why>` (see docs/LINTS.md):\n  {}",
        findings.len(),
        findings.join("\n  ")
    );

    // Acceptance bound from the issue: the full-workspace lint is
    // cheap enough to run on every `cargo test`.
    let elapsed = started.elapsed();
    assert!(
        elapsed.as_secs() < 5,
        "workspace lint took {elapsed:?} — must stay under 5s"
    );
}

#[test]
fn grep_regression_slash_slash_in_string_no_longer_hides_tokens() {
    // The grep stripped everything after the first `//` on a line, so
    // a URL literal hid any banned token to its right. Token-level
    // scanning sees through it.
    let src = "fn f() {\n    let url = \"http://x.y\"; let m: std::collections::HashMap<u8, u8> = Default::default();\n}\n";
    let findings = lint_source("regression.rs", src, RuleSet::all()).expect("snippet lints");
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "nondeterminism" && f.line == 2),
        "HashMap after a `//`-bearing string must flag: {findings:?}"
    );
}

#[test]
fn grep_regression_aliasing_no_longer_evades_the_ban() {
    let src = "use std::collections::HashSet as Seen;\nfn f() {\n    let s: Seen<u64> = Seen::default();\n    drop(s);\n}\n";
    let findings = lint_source("regression.rs", src, RuleSet::all()).expect("snippet lints");
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "nondeterminism" && f.line == 3 && f.message.contains("aliases")),
        "alias use sites must carry the ban: {findings:?}"
    );
}
