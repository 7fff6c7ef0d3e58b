//! Mutation self-tests: for every rule class, plant a defect in a
//! snippet and assert the engine reports it at the expected span —
//! and that the finding disappears exactly when that one rule is
//! switched off (`RuleSet::without`). This is the proof that each
//! rule actually carries weight in the tier-1 gate: a rule that can
//! be disabled without failing a test here is dead code.

use ampnet_lint::rules::Finding;
use ampnet_lint::{lint_source, RuleSet};

fn lint(src: &str, rules: RuleSet) -> Vec<Finding> {
    lint_source("snippet.rs", src, rules).expect("snippet lints")
}

/// `(line, col, rule)` triples, for order-insensitive span asserts.
fn spans(findings: &[Finding]) -> Vec<(u32, u32, &str)> {
    findings.iter().map(|f| (f.line, f.col, f.rule)).collect()
}

// ---------------------------------------------------------------- R1

#[test]
fn r1_detects_banned_ident_at_span() {
    let src = "fn f() {\n    let seen = std::collections::HashMap::new();\n}\n";
    let found = lint(src, RuleSet::all());
    assert!(
        spans(&found).contains(&(2, 34, "nondeterminism")),
        "expected HashMap at 2:34, got {found:?}"
    );
    // Mutation: disabling R1 hides it.
    assert!(
        lint(src, RuleSet::all().without("nondeterminism")).is_empty(),
        "finding must disappear when nondeterminism is off"
    );
}

#[test]
fn r1_is_alias_aware() {
    // The grep lint this engine replaces was evadable by renaming the
    // import; the alias carries the ban to every later use site.
    let src = "use std::collections::HashMap as Map;\nfn f() {\n    let m: Map<u8, u8> = Map::new();\n}\n";
    let found = lint(src, RuleSet::all());
    let r1: Vec<_> = spans(&found)
        .into_iter()
        .filter(|s| s.2 == "nondeterminism")
        .collect();
    // The `use` line itself (HashMap token) plus both `Map` uses.
    assert_eq!(
        r1,
        vec![
            (1, 23, "nondeterminism"),
            (3, 12, "nondeterminism"),
            (3, 26, "nondeterminism"),
        ],
        "alias uses must be flagged: {found:?}"
    );
    assert!(lint(src, RuleSet::all().without("nondeterminism")).is_empty());
}

#[test]
fn r1_detects_rand_random_path() {
    let src = "fn f() -> u64 {\n    rand::random()\n}\n";
    let found = lint(src, RuleSet::all());
    assert!(
        spans(&found).contains(&(2, 5, "nondeterminism")),
        "rand::random must flag at the path head: {found:?}"
    );
    assert!(lint(src, RuleSet::all().without("nondeterminism")).is_empty());
}

#[test]
fn r1_detects_float_equality_on_digest_path_only() {
    let src = "fn f(x: f64) -> bool {\n    x == 1.0\n}\n";
    let found = lint(src, RuleSet::all());
    assert!(
        spans(&found).contains(&(2, 7, "nondeterminism")),
        "float eq must flag at the operator: {found:?}"
    );
    // Same construct off the digest path is legal (R1 still on).
    let mut off_digest = RuleSet::all();
    off_digest.digest_path = false;
    assert!(lint(src, off_digest).is_empty());
    // Integer comparison never flags, digest path or not.
    assert!(lint("fn f(x: u64) -> bool {\n    x == 1\n}\n", RuleSet::all()).is_empty());
}

#[test]
fn r1_runs_inside_test_items_too() {
    // Test oracles must stay deterministic: seeds replay through them.
    let src = "#[test]\nfn t() {\n    let s = std::collections::HashSet::new();\n    drop(s);\n}\n";
    let found = lint(src, RuleSet::all());
    assert!(
        found.iter().any(|f| f.rule == "nondeterminism" && f.line == 3),
        "R1 must not skip #[test] items: {found:?}"
    );
}

// ---------------------------------------------------------------- R2

#[test]
fn r2_detects_each_allocating_construct() {
    let cases: &[(&str, u32)] = &[
        ("fn f() { let v = vec![0u8; 16]; drop(v); }", 18),
        ("fn f() { let v: Vec<u8> = Vec::new(); drop(v); }", 27),
        ("fn f(x: &[u8]) { let v = x.to_vec(); drop(v); }", 28),
        ("fn f(n: u32) { let s = format!(\"{n}\"); drop(s); }", 24),
        ("fn f() { let b = Box::new(0u8); drop(b); }", 18),
        ("fn f() { let s = String::from(\"x\"); drop(s); }", 18),
        ("fn f(v: &Vec<u8>) { let w = v.clone(); drop(w); }", 31),
    ];
    for (src, col) in cases {
        let found = lint(src, RuleSet::all());
        assert!(
            spans(&found).contains(&(1, *col, "hot-path-alloc")),
            "expected hot-path-alloc at 1:{col} in {src:?}, got {found:?}"
        );
        assert!(
            lint(src, RuleSet::all().without("hot-path-alloc"))
                .iter()
                .all(|f| f.rule != "hot-path-alloc"),
            "finding must disappear when hot-path-alloc is off: {src:?}"
        );
    }
}

#[test]
fn r2_skips_test_items() {
    let src = "#[test]\nfn t() {\n    let v = vec![1, 2, 3];\n    assert_eq!(v.len(), 3);\n}\n";
    assert!(
        lint(src, RuleSet::all()).is_empty(),
        "allocation in a #[test] item is not a hot-path finding"
    );
}

// ---------------------------------------------------------------- R3

#[test]
fn r3_detects_each_panicking_construct() {
    let cases: &[(&str, u32)] = &[
        ("fn f(x: Option<u8>) -> u8 { x.unwrap() }", 31),
        ("fn f(x: Option<u8>) -> u8 { x.expect(\"set\") }", 31),
        ("fn f() { panic!(\"boom\"); }", 10),
        ("fn f() -> u8 { unreachable!() }", 16),
        ("fn f() -> u8 { todo!() }", 16),
        ("fn f() -> u8 { unimplemented!() }", 16),
    ];
    for (src, col) in cases {
        let found = lint(src, RuleSet::all());
        assert!(
            spans(&found).contains(&(1, *col, "panic-freedom")),
            "expected panic-freedom at 1:{col} in {src:?}, got {found:?}"
        );
        assert!(
            lint(src, RuleSet::all().without("panic-freedom")).is_empty(),
            "finding must disappear when panic-freedom is off: {src:?}"
        );
    }
}

#[test]
fn r3_skips_test_items_and_attribute_mentions() {
    // Asserting in tests is the point, and `#[should_panic]` names the
    // macro without calling it.
    let src = "#[test]\n#[should_panic]\nfn t() {\n    Option::<u8>::None.unwrap();\n}\n";
    assert!(lint(src, RuleSet::all()).is_empty());
}

// ------------------------------------------------------- allow audit

#[test]
fn allow_suppresses_exactly_its_rule_and_line() {
    // Trailing form.
    let trailing = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // lint: allow(panic-freedom): caller checked is_some above\n}\n";
    assert!(lint(trailing, RuleSet::all()).is_empty());
    // Own-line form binds to the next code line.
    let own_line = "fn f(x: Option<u8>) -> u8 {\n    // lint: allow(panic-freedom): caller checked is_some above\n    x.unwrap()\n}\n";
    assert!(lint(own_line, RuleSet::all()).is_empty());
    // Scoped: an allow for one rule does not excuse another on the
    // same line.
    let wrong_rule = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // lint: allow(nondeterminism): wrong rule\n}\n";
    let found = lint(wrong_rule, RuleSet::all());
    assert!(
        found.iter().any(|f| f.rule == "panic-freedom"),
        "an allow must be scoped to its named rule: {found:?}"
    );
}

#[test]
fn allow_audit_flags_unknown_rule_and_missing_why() {
    let unknown = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // lint: allow(panics): whatever\n}\n";
    let found = lint(unknown, RuleSet::all());
    assert!(
        found
            .iter()
            .any(|f| f.rule == "allow-audit" && f.message.contains("unknown rule")),
        "unknown rule id must be an audit finding: {found:?}"
    );
    // The malformed allow suppresses nothing: the panic finding stays.
    assert!(found.iter().any(|f| f.rule == "panic-freedom"));

    let empty_why = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // lint: allow(panic-freedom):\n}\n";
    let found = lint(empty_why, RuleSet::all());
    assert!(
        found
            .iter()
            .any(|f| f.rule == "allow-audit" && f.message.contains("no justification")),
        "empty justification must be an audit finding: {found:?}"
    );
    assert!(found.iter().any(|f| f.rule == "panic-freedom"));
}

#[test]
fn allow_audit_flags_unused_allows() {
    // The excused construct is gone; the stale allow is the finding.
    let src = "fn f(x: u8) -> u8 {\n    x + 1 // lint: allow(panic-freedom): stale excuse\n}\n";
    let found = lint(src, RuleSet::all());
    assert!(
        found
            .iter()
            .any(|f| f.rule == "allow-audit" && f.message.contains("suppresses nothing")),
        "unused allow must be an audit finding: {found:?}"
    );
}

// ------------------------------------------------- scanner regression

#[test]
fn slash_slash_inside_string_does_not_truncate_the_scan() {
    // The grep lint this engine replaces stripped everything after the
    // first `//` on a line — a URL or path literal containing `//`
    // hid any banned token to its right. Token-level scanning makes
    // that evasion structurally impossible.
    let src = "fn f() {\n    let url = \"http://example.com\"; let m = std::collections::HashMap::<u8, u8>::new();\n}\n";
    let found = lint(src, RuleSet::all());
    assert!(
        found
            .iter()
            .any(|f| f.rule == "nondeterminism" && f.line == 2),
        "banned token after a string containing `//` must still flag: {found:?}"
    );
    // And the converse: a banned word inside a string literal is NOT a
    // finding (the grep lint false-positived on these).
    let in_string = "fn f() -> &'static str {\n    \"HashMap is banned in sim-facing crates\"\n}\n";
    assert!(lint(in_string, RuleSet::all()).is_empty());
}
