//! The per-crate rule configuration for THIS workspace, and the
//! driver that walks it. Rules are opt-in by scope: the policy names
//! which crates are sim-facing (R1), which modules are declared hot
//! paths (R2) and which crates are panic-free protocol code (R3).
//! Everything the policy says here is something the repo already pays
//! for at run time — a bench guard, a digest-equality test, or a
//! model-checked invariant; the lint makes the same promise hold
//! statically.

use crate::report::Report;
use crate::rules::{run_rules, Finding, RuleSet};
use crate::scan::analyze;
use std::path::{Path, PathBuf};

/// Which rules run where. Paths are repo-relative with `/` separators.
pub struct Policy {
    /// R1 `nondeterminism`: crates whose `src/` must be
    /// schedule-free (the sans-IO protocol stack + simulation engine
    /// + everything folded into byte-stable reports).
    pub nondeterminism_crates: &'static [&'static str],
    /// R1 refinement: files feeding trace/metrics digests, where
    /// float equality is additionally banned.
    pub digest_path_files: &'static [&'static str],
    /// R2 `hot-path-alloc`: declared allocation-free modules.
    pub hot_path_files: &'static [&'static str],
    /// R3 `panic-freedom`: crates where panicking constructs need a
    /// scoped justification.
    pub panic_freedom_crates: &'static [&'static str],
    /// Crates excluded from the walk entirely. The lint engine's own
    /// sources document the allow syntax in prose, which would read
    /// as (deliberately malformed) allows; its correctness is proven
    /// by its mutation self-tests instead.
    pub skip_crates: &'static [&'static str],
}

/// The workspace policy enforced tier-1 and in the CI `lint` job.
pub const REPO_POLICY: Policy = Policy {
    nondeterminism_crates: &[
        "sim",
        "ring",
        "core",
        "cache",
        "roster",
        "dk",
        "chaos",
        "telemetry",
        // The service endpoints and the workload engine driving them:
        // both run inside the seeded simulation, so a stray wall-clock
        // read or hashed iteration breaks byte-identical LoadReports.
        "services",
        "load",
        // The plant abstraction and family generators: adjacency must
        // be construction-ordered and damage seeded, never hashed.
        "topo",
    ],
    digest_path_files: &[
        "crates/sim/src/digest.rs",
        "crates/sim/src/trace.rs",
        "crates/sim/src/stats.rs",
        "crates/telemetry/src/hist.rs",
        "crates/telemetry/src/snapshot.rs",
        "crates/core/src/multiseg.rs",
    ],
    hot_path_files: &[
        // The ring planes: every packet crosses these per hop.
        "crates/ring/src/mac.rs",
        "crates/ring/src/pacing.rs",
        "crates/ring/src/stack.rs",
        "crates/ring/src/stream.rs",
        // The event core: schedule/cancel/pop on every event.
        "crates/sim/src/queue.rs",
        // The telemetry record path: `Telemetry::{inc, add, set,
        // record, flight}`, the atomic cells they write and the
        // histogram bucket function. Registration, snapshots and the
        // flight dump (`registry.rs`, `recorder.rs`) are the cold side.
        "crates/telemetry/src/lib.rs",
        "crates/telemetry/src/cells.rs",
        "crates/telemetry/src/hist.rs",
    ],
    panic_freedom_crates: &[
        "sim", "ring", "packet", "phy", "core", "cache", "roster", "dk", "telemetry", "chaos",
    ],
    skip_crates: &["lint"],
};

/// The rule set a repo-relative path gets under a policy.
pub fn rule_set_for(p: &Policy, rel: &str) -> RuleSet {
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    let in_src = rel
        .strip_prefix("crates/")
        .map(|r| {
            r.split('/')
                .nth(1)
                .is_some_and(|seg| seg == "src")
        })
        .unwrap_or(false);
    RuleSet {
        nondeterminism: in_src && p.nondeterminism_crates.contains(&crate_name),
        digest_path: p.digest_path_files.contains(&rel),
        hot_path_alloc: p.hot_path_files.contains(&rel),
        panic_freedom: in_src && p.panic_freedom_crates.contains(&crate_name),
    }
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("walk {}: {e}", dir.display()))?.path();
        if path.is_dir() {
            rust_sources(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint every `crates/*/src/**/*.rs` under `root` against the policy.
/// Findings come back sorted by (file, line, col); justified allows
/// that suppressed something are recorded, and allows that suppressed
/// nothing become `allow-audit` findings so the opt-out catalogue
/// never outlives the code it excused.
pub fn run_workspace(root: &Path, policy: &Policy) -> Result<Report, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("read {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut report = Report::new();
    for crate_dir in crate_dirs {
        let name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if policy.skip_crates.contains(&name.as_str()) {
            continue;
        }
        let src_dir = crate_dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_sources(&src_dir, &mut files)?;
        files.sort();
        for file in files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(&file)
                .map_err(|e| format!("read {}: {e}", file.display()))?;
            lint_file_into(&rel, &src, rule_set_for(policy, &rel), &mut report);
        }
    }
    report.finish();
    Ok(report)
}

/// Lint one in-memory source (snippet tests, regression tests). Lex
/// errors surface as the `Err` string.
pub fn lint_source(virtual_path: &str, src: &str, rules: RuleSet) -> Result<Vec<Finding>, String> {
    let mut report = Report::new();
    lint_file_into(virtual_path, src, rules, &mut report);
    report.finish();
    Ok(report.findings)
}

fn lint_file_into(rel: &str, src: &str, rules: RuleSet, report: &mut Report) {
    let analysis = match analyze(src) {
        Ok(a) => a,
        Err(e) => {
            report.findings.push(Finding {
                file: rel.to_string(),
                line: e.line,
                col: e.col,
                rule: "allow-audit",
                message: format!("file does not lex: {}", e.msg),
            });
            report.files_scanned += 1;
            return;
        }
    };
    let (findings, used) = run_rules(rel, &analysis, rules);
    report.findings.extend(findings);
    for (i, al) in analysis.allows.iter().enumerate() {
        if !al.known_rule || al.why.is_empty() {
            continue; // already reported by the allow audit
        }
        if used.contains(&i) {
            report.record_allow(rel, al);
        } else {
            report.findings.push(Finding {
                file: rel.to_string(),
                line: al.line,
                col: 1,
                rule: "allow-audit",
                message: format!(
                    "allow({}) suppresses nothing here — the excused code is \
                     gone or the rule is out of scope; delete the annotation",
                    al.rule
                ),
            });
        }
    }
    report.files_scanned += 1;
}
