//! Byte-stable `LINT_report.json` emission: same tree ⇒ identical
//! bytes. Findings and allows are sorted, strings minimally escaped,
//! and an FNV-1a digest of the payload folds in at the end — the same
//! committed-artifact discipline as `CHECK_models.json`.

use crate::rules::{Finding, RULE_IDS};
use crate::scan::Allow;
use std::fmt::Write as _;

/// One justified, *used* allow — part of the report so reviewers see
/// the full escape-hatch catalogue next to the findings.
#[derive(Debug, Clone)]
pub struct AllowRecord {
    /// Repo-relative path.
    pub file: String,
    /// Line of the allow comment.
    pub line: u32,
    /// Rule it excuses.
    pub rule: String,
    /// The stated justification.
    pub why: String,
}

/// Outcome of a workspace run: findings (empty = gate passes),
/// the used-allow catalogue, and scan bookkeeping.
#[derive(Debug, Default)]
pub struct Report {
    /// Files lexed and scanned.
    pub files_scanned: usize,
    /// Rule findings plus allow-audit findings, sorted.
    pub findings: Vec<Finding>,
    /// Justified allows that suppressed at least one finding.
    pub allows: Vec<AllowRecord>,
}

impl Report {
    pub(crate) fn new() -> Self {
        Report::default()
    }

    pub(crate) fn record_allow(&mut self, file: &str, al: &Allow) {
        self.allows.push(AllowRecord {
            file: file.to_string(),
            line: al.line,
            rule: al.rule.clone(),
            why: al.why.clone(),
        });
    }

    /// Sort into canonical order (stable output across runs).
    pub(crate) fn finish(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
        self.allows
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    }

    /// Render the canonical JSON report.
    pub fn to_json(&self) -> String {
        let mut body = String::new();
        body.push_str("{\n  \"schema\": \"ampnet-lint-report-v1\",\n");
        let _ = writeln!(body, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(body, "  \"rules\": [");
        for (i, id) in RULE_IDS.iter().enumerate() {
            let comma = if i + 1 < RULE_IDS.len() { "," } else { "" };
            let _ = writeln!(body, "    \"{id}\"{comma}");
        }
        body.push_str("  ],\n");
        let _ = writeln!(body, "  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 < self.findings.len() { "," } else { "" };
            let _ = writeln!(
                body,
                "    {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"message\": {}}}{comma}",
                json_str(&f.file),
                f.line,
                f.col,
                json_str(f.rule),
                json_str(&f.message),
            );
        }
        body.push_str("  ],\n");
        let _ = writeln!(body, "  \"allows\": [");
        for (i, al) in self.allows.iter().enumerate() {
            let comma = if i + 1 < self.allows.len() { "," } else { "" };
            let _ = writeln!(
                body,
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"why\": {}}}{comma}",
                json_str(&al.file),
                al.line,
                json_str(&al.rule),
                json_str(&al.why),
            );
        }
        body.push_str("  ],\n");
        let _ = writeln!(body, "  \"finding_count\": {},", self.findings.len());
        let _ = writeln!(body, "  \"allow_count\": {},", self.allows.len());
        let _ = writeln!(body, "  \"digest\": \"{:#018x}\"", self.digest());
        body.push_str("}\n");
        body
    }

    /// FNV-1a over every finding and allow, order-sensitive — the
    /// committed report drifts iff the lint outcome drifts.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |s: &str| {
            for b in s.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for f in &self.findings {
            fold(&f.to_string());
        }
        for al in &self.allows {
            fold(&al.file);
            fold(&al.rule);
            fold(&al.why);
        }
        fold(&self.files_scanned.to_string());
        h
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
