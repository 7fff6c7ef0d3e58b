//! The lint catalogue (`docs/LINTS.md`) cannot drift from the engine:
//! the committed file must be byte-identical to the document generated
//! from `ampnet_lint::RULE_DOCS`, and the committed `LINT_report.json`
//! must be byte-identical to a fresh workspace run — same discipline
//! as `docs/METRICS.md` and `CHECK_models.json`.

use ampnet::lint::{run_workspace, REPO_POLICY};
use std::path::Path;

/// `docs/LINTS.md` is exactly `ampnet_lint::reference_doc()`.
/// Regenerate with `cargo run -p ampnet-bench --bin figures -- --lints-doc`.
#[test]
fn lints_doc_matches_rule_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/LINTS.md");
    let committed = std::fs::read_to_string(path).expect("docs/LINTS.md exists");
    let generated = ampnet::lint::reference_doc();
    assert!(
        committed == generated,
        "docs/LINTS.md is stale; regenerate with\n  \
         cargo run -p ampnet-bench --bin figures -- --lints-doc > docs/LINTS.md"
    );
}

/// The committed `LINT_report.json` matches a fresh run byte-for-byte:
/// the report drifts iff the lint outcome drifts, and the diff shows
/// reviewers exactly which findings or allows changed.
#[test]
fn committed_lint_report_matches_fresh_run() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(root.join("LINT_report.json"))
        .expect("LINT_report.json exists");
    let report = run_workspace(root, &REPO_POLICY).expect("workspace walk succeeds");
    assert!(
        committed == report.to_json(),
        "LINT_report.json is stale; regenerate with\n  \
         cargo run -p ampnet-bench --bin figures -- --lint"
    );
}
