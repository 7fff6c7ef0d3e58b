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
