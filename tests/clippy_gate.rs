//! Tier-1 lint gate: the whole workspace is clippy-clean with warnings
//! denied.
//!
//! The lint policy is compiler configuration (DESIGN.md §16): the
//! root `clippy.toml` bans hashed collections, wall clocks and host
//! probes; each protocol crate's `lib.rs` turns on the panic lints; the
//! digest-path files turn on `clippy::float_cmp`; and the workspace
//! `[lints]` table makes every exception an `#[expect(…, reason)]`.
//! This test is the copy of that gate that runs on every `cargo test`.
//! It uses its own target directory, so it never waits on the build
//! lock of the `cargo test` that runs it. A missing clippy fails the
//! test; it does not skip it.

use std::path::Path;
use std::process::Command;

#[test]
fn workspace_is_clippy_clean_with_warnings_denied() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO"))
        .current_dir(root)
        .env("CARGO_TARGET_DIR", root.join("target/clippy-gate"))
        .args([
            "clippy",
            "--offline",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ])
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "cargo clippy --workspace --all-targets -- -D warnings failed ({}); fix the \
         finding, or excuse it with #[expect(<lint>, reason = \"<why>\")]:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Panic-family lint exceptions (`#[expect(clippy::expect_used, …)]`
/// and its kin) in the crates' sources. Each excuses a panic the code
/// around it proves cannot happen; a call a caller can get wrong
/// returns an error instead. The count may only fall: a new exception
/// fails this test, and so does a removed one until the pin follows it
/// down.
const PANIC_FAMILY_EXPECTS: usize = 10;

/// The panic lints each protocol crate's `lib.rs` turns on.
const PANIC_LINTS: [&str; 6] = [
    "expect_used",
    "unwrap_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `file:line` of each `#[expect(…)]` in `text` that names a panic lint.
fn panic_family_expects(name: &str, text: &str) -> Vec<String> {
    text.match_indices("#[expect(")
        .filter(|&(at, _)| {
            let attr = &text[at..at + text[at..].find(")]").unwrap_or(text.len() - at)];
            attr.split("clippy::").skip(1).any(|rest| {
                let lint: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                PANIC_LINTS.contains(&lint.as_str())
            })
        })
        .map(|(at, _)| format!("{name}:{}", text[..at].lines().count() + 1))
        .collect()
}

#[test]
fn panic_family_expects_only_fall() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![];
    for krate in std::fs::read_dir(root.join("crates")).expect("crates directory") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    let sites: Vec<String> = files
        .iter()
        .flat_map(|f| {
            let text = std::fs::read_to_string(f).expect("readable source file");
            panic_family_expects(
                &f.strip_prefix(root).unwrap_or(f).display().to_string(),
                &text,
            )
        })
        .collect();
    assert!(
        sites.len() <= PANIC_FAMILY_EXPECTS,
        "{} panic-family #[expect]s, pinned at {PANIC_FAMILY_EXPECTS}: return an error \
         instead of excusing a new panic:\n{sites:#?}",
        sites.len()
    );
    assert_eq!(
        sites.len(),
        PANIC_FAMILY_EXPECTS,
        "the count fell: lower PANIC_FAMILY_EXPECTS to {}:\n{sites:#?}",
        sites.len()
    );
}
