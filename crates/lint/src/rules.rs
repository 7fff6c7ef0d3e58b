//! The rule catalogue: three rule families over the scanned token
//! stream, plus the allow audit that keeps the opt-out catalogue
//! honest. Each rule is a pure function of one file's [`Analysis`]
//! and the [`RuleSet`] selecting what runs there; the workspace
//! driver in [`crate::policy`] decides the per-crate `RuleSet`.

use crate::lexer::{Token, TokenKind};
use crate::scan::{Analysis, BANNED_PATH, BANNED_WORDS};

/// Rule identifiers as they appear in diagnostics, allows and the
/// report. Order is the catalogue order of `docs/LINTS.md`.
pub const RULE_IDS: &[&str] = &[
    "nondeterminism",
    "hot-path-alloc",
    "panic-freedom",
    "allow-audit",
];

/// Which rules run on a given file, with the per-rule refinements the
/// policy derives from its module lists.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleSet {
    /// R1: banned nondeterminism tokens (alias-aware).
    pub nondeterminism: bool,
    /// R1 refinement: this file feeds a digest — float equality is
    /// also banned. Implies nothing unless `nondeterminism` is on.
    pub digest_path: bool,
    /// R2: allocating constructs are banned (declared hot path).
    pub hot_path_alloc: bool,
    /// R3: panicking constructs need a scoped justification.
    pub panic_freedom: bool,
}

impl RuleSet {
    /// Every rule on (snippet tests).
    pub fn all() -> Self {
        RuleSet {
            nondeterminism: true,
            digest_path: true,
            hot_path_alloc: true,
            panic_freedom: true,
        }
    }

    /// Disable one rule by id — the mutation self-tests prove each
    /// detection disappears exactly when its rule is switched off.
    pub fn without(mut self, rule: &str) -> Self {
        match rule {
            "nondeterminism" => self.nondeterminism = false,
            "hot-path-alloc" => self.hot_path_alloc = false,
            "panic-freedom" => self.panic_freedom = false,
            other => panic!("unknown rule id {other:?}"),
        }
        self
    }
}

/// One diagnostic: `file:line:col · rule-id · suggestion`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id from [`RULE_IDS`].
    pub rule: &'static str,
    /// What was found and what to do instead.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{} · {} · {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Run the selected rules over one analyzed file, honoring allows.
/// Findings suppressed by a justified allow are dropped; the allows
/// that did the suppressing are marked used via the returned index
/// set (the workspace driver audits unused ones).
pub fn run_rules(file: &str, a: &Analysis<'_>, rules: RuleSet) -> (Vec<Finding>, Vec<usize>) {
    let mut raw: Vec<Finding> = Vec::new();
    if rules.nondeterminism {
        nondeterminism(file, a, rules.digest_path, &mut raw);
    }
    if rules.hot_path_alloc {
        hot_path_alloc(file, a, &mut raw);
    }
    if rules.panic_freedom {
        panic_freedom(file, a, &mut raw);
    }
    allow_audit(file, a, &mut raw);

    // Apply allows: a finding on line L of rule R is suppressed by a
    // justified, known allow for R applying to L.
    let mut used = Vec::new();
    let findings = raw
        .into_iter()
        .filter(|f| {
            if f.rule == "allow-audit" {
                return true; // the audit itself cannot be allowed away
            }
            let mut hit = false;
            for (i, al) in a.allows.iter().enumerate() {
                if al.known_rule && !al.why.is_empty() && al.rule == f.rule && al.applies_to == f.line
                {
                    used.push(i);
                    hit = true;
                }
            }
            !hit
        })
        .collect();
    (findings, used)
}

fn code_tokens<'a>(a: &'a Analysis<'_>) -> Vec<&'a Token> {
    a.tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect()
}

fn finding(file: &str, t: &Token, rule: &'static str, message: String) -> Finding {
    Finding {
        file: file.to_string(),
        line: t.span.line,
        col: t.span.col,
        rule,
        message,
    }
}

// ---------------------------------------------------------------- R1

/// R1 `nondeterminism`: banned identifiers (and their `use … as`
/// aliases), `rand::random`, and — on digest-path files — float
/// equality. Runs in test code too: a hashed iteration in a test
/// oracle breaks seed reproducibility just as surely.
fn nondeterminism(file: &str, a: &Analysis<'_>, digest_path: bool, out: &mut Vec<Finding>) {
    let code = code_tokens(a);
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            // Float equality on digest paths: `x == 1.0`, `0.5 != y`.
            if digest_path && t.kind == TokenKind::Punct {
                let text = t.text(a.src);
                if text == "==" || text == "!=" {
                    let float_side = [i.checked_sub(1), Some(i + 1)]
                        .into_iter()
                        .flatten()
                        .filter_map(|j| code.get(j))
                        .any(|n| n.kind == TokenKind::Float);
                    if float_side {
                        out.push(finding(
                            file,
                            t,
                            "nondeterminism",
                            "float equality on a digest path — fold integers \
                             (or `to_bits()`) into digests, never float compares"
                                .into(),
                        ));
                    }
                }
            }
            continue;
        }
        let text = t.text(a.src);
        if BANNED_WORDS.contains(&text) {
            out.push(finding(
                file,
                t,
                "nondeterminism",
                format!(
                    "`{text}` is schedule- or host-dependent — use \
                     BTreeMap/BTreeSet, SimTime, or an explicit seed"
                ),
            ));
            continue;
        }
        if text == BANNED_PATH.1
            && i >= 2
            && code[i - 1].text(a.src) == "::"
            && code[i - 2].text(a.src) == BANNED_PATH.0
        {
            out.push(finding(
                file,
                code[i - 2],
                "nondeterminism",
                "`rand::random` draws ambient entropy — derive a \
                 `SimRng` substream from the scenario seed"
                    .into(),
            ));
            continue;
        }
        if let Some(al) = a
            .aliases
            .iter()
            .find(|al| al.name == text && !al.sanctioned && t.span.line != al.line)
        {
            out.push(finding(
                file,
                t,
                "nondeterminism",
                format!(
                    "`{}` aliases `{}` (use line {}) — the ban follows \
                     the meaning, not the name",
                    al.name, al.original, al.line
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- R2

/// R2 `hot-path-alloc`: allocating constructs inside declared
/// hot-path modules. The catalogue matches what the data-plane PRs
/// paid to remove: `vec!`, `Vec::new`, `.to_vec()`, `format!`,
/// `Box::new`, `String::from`, `.clone()`. Test items are skipped —
/// the guard is about the shipping path.
fn hot_path_alloc(file: &str, a: &Analysis<'_>, out: &mut Vec<Finding>) {
    let code = code_tokens(a);
    let msg = |what: &str| {
        format!(
            "`{what}` allocates on a declared hot path — preallocate at \
             construction, reuse a scratch buffer, or borrow"
        )
    };
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || a.in_test(t.span.start) {
            continue;
        }
        let text = t.text(a.src);
        let next = |k: usize| code.get(i + k).map(|n| n.text(a.src));
        let prev = |k: usize| i.checked_sub(k).map(|j| code[j].text(a.src));
        match text {
            "vec" | "format" if next(1) == Some("!") => {
                out.push(finding(file, t, "hot-path-alloc", msg(&format!("{text}!"))));
            }
            "new" if next(1) == Some("(") && prev(1) == Some("::") => {
                if let Some(owner @ ("Vec" | "Box" | "String")) = prev(2) {
                    out.push(finding(
                        file,
                        code[i - 2],
                        "hot-path-alloc",
                        msg(&format!("{owner}::new")),
                    ));
                }
            }
            "from" if next(1) == Some("(") && prev(1) == Some("::") && prev(2) == Some("String") => {
                out.push(finding(file, code[i - 2], "hot-path-alloc", msg("String::from")));
            }
            "to_vec" | "clone" if next(1) == Some("(") && prev(1) == Some(".") => {
                out.push(finding(file, t, "hot-path-alloc", msg(&format!(".{text}()"))));
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------- R3

/// R3 `panic-freedom`: panicking constructs in sim-facing protocol
/// crates need a scoped justification — a panic in the middle of a
/// rostering storm takes the whole simulated cluster down, so every
/// one must say why it is unreachable or the right response. Test
/// items are skipped (asserting in tests is the point).
fn panic_freedom(file: &str, a: &Analysis<'_>, out: &mut Vec<Finding>) {
    let code = code_tokens(a);
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || a.in_test(t.span.start) {
            continue;
        }
        let text = t.text(a.src);
        let next = code.get(i + 1).map(|n| n.text(a.src));
        let prev = i.checked_sub(1).map(|j| code[j].text(a.src));
        let hit = match text {
            "panic" | "unreachable" | "todo" | "unimplemented" if next == Some("!") => {
                // `#[should_panic]`/`#[allow(…)]` attribute mentions
                // don't call the macro; requiring `!` filters them.
                Some(format!("{text}!"))
            }
            "unwrap" | "expect" if next == Some("(") && prev == Some(".") => {
                Some(format!(".{text}()"))
            }
            _ => None,
        };
        if let Some(what) = hit {
            out.push(finding(
                file,
                t,
                "panic-freedom",
                format!(
                    "`{what}` can take the simulated cluster down — return an \
                     error, or annotate why the state is impossible"
                ),
            ));
        }
    }
}

// -------------------------------------------------------- allow audit

/// The opt-out catalogue polices itself: allows naming unknown rules
/// or missing a justification are findings, and so are allows that no
/// longer suppress anything (the workspace driver reports those after
/// running every rule — here only malformed ones are caught).
fn allow_audit(file: &str, a: &Analysis<'_>, out: &mut Vec<Finding>) {
    for al in &a.allows {
        if !al.known_rule {
            out.push(Finding {
                file: file.to_string(),
                line: al.line,
                col: 1,
                rule: "allow-audit",
                message: format!(
                    "allow names unknown rule `{}` — rule-scoped ids are {:?}",
                    al.rule,
                    &RULE_IDS[..RULE_IDS.len() - 1]
                ),
            });
        } else if al.why.is_empty() {
            out.push(Finding {
                file: file.to_string(),
                line: al.line,
                col: 1,
                rule: "allow-audit",
                message: format!(
                    "allow({}) has no justification — write \
                     `// lint: allow({}): <why>`",
                    al.rule, al.rule
                ),
            });
        }
    }
}
