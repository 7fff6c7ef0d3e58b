//! The repo benchmark: four deterministic workloads, two clocks, and a
//! per-layer ledger measured from outside the program. See README.md.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON result line
//! benchmark --workload all [--seed N] [--seconds S]            every workload, timed and traced
//! benchmark --selfcheck                                        the full set twice, A against B
//! benchmark --spread 10                                        ten seeds per workload, IQR against the bounds
//! ```

mod alloc;
mod calib;
mod json;
mod legs;
mod names;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub selfcheck: bool,
    /// Internal: one pass, print peak resident memory (see `run::rss_probe`).
    pub rss_probe: bool,
    /// `--spread N`: N timed runs per workload on consecutive seeds.
    pub spread: u64,
    pub golden: Option<PathBuf>,
    pub write_golden: bool,
    pub emit_benchmark_json: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark --workload NAME|all [--seed N] [--seconds S] [--trace 0|1 | --traced]\n\
         \x20      benchmark --selfcheck [--seed N] [--seconds S]\n\
         \x20      benchmark --spread RUNS [--seed N] [--seconds S]\n\
         \x20      options: --golden PATH (compare against another golden file), --write-golden (with --workload all)\n\
         workloads: {}",
        names::WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: names::DEFAULT_SEED,
        seconds: names::DEFAULT_SECONDS,
        traced: false,
        selfcheck: false,
        rss_probe: false,
        spread: 0,
        golden: None,
        write_golden: false,
        emit_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.traced = matches!(value().as_str(), "1" | "true"),
            "--traced" => args.traced = true,
            "--selfcheck" => args.selfcheck = true,
            "--rss-probe" => args.rss_probe = true,
            "--spread" => args.spread = value().parse().unwrap_or_else(|_| usage()),
            "--golden" => args.golden = Some(PathBuf::from(value())),
            "--write-golden" => args.write_golden = true,
            "--emit-benchmark-json" => args.emit_benchmark_json = true,
            _ => usage(),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        usage();
    }
    args
}

/// The benchmark's own directory: `benchmark/` under the working
/// directory when run from a checkout's root (how the command in
/// `BENCHMARK.json` runs it), else where it was compiled.
pub fn benchmark_dir() -> PathBuf {
    let local = Path::new("benchmark");
    if local.join("Cargo.toml").is_file() {
        local.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// The `[profile.release]` table of a manifest, as sorted `key=value`
/// lines without comments or whitespace.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| {
            l.split('#')
                .next()
                .unwrap_or("")
                .chars()
                .filter(|c| !c.is_whitespace())
                .collect::<String>()
        })
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

/// Refuse to measure a different compile than the one that ships: the
/// benchmark's release profile must equal the root manifest's.
fn check_profiles() -> Result<(), String> {
    let dir = benchmark_dir();
    let read =
        |p: PathBuf| std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()));
    let own = release_profile(&read(dir.join("Cargo.toml"))?);
    let root = release_profile(&read(dir.join("..").join("Cargo.toml"))?);
    if own.is_empty() || own != root {
        return Err(format!(
            "benchmark/Cargo.toml [profile.release] {own:?} differs from the root manifest's {root:?}"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.emit_benchmark_json {
        print!("{}", names::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Err(e) = check_profiles() {
        eprintln!("refusing to run: {e}");
        return ExitCode::from(3);
    }
    let ok = if args.selfcheck {
        report::selfcheck(&args)
    } else if args.spread > 0 {
        report::spread(&args, args.spread)
    } else if args.workload == "all" {
        report::run_all(&args)
    } else if let Some(def) = workloads::find(&args.workload) {
        if args.rss_probe {
            run::rss_probe(def, args.seed)
        } else {
            run::one(def, &args)
        }
    } else {
        usage()
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_is_read_as_normalised_sorted_lines() {
        let manifest = "[package]\nname = \"x\"\n\n[profile.release]\n# why\nlto = \"fat\"  # cross-crate\ncodegen-units=1\ndebug = \"line-tables-only\"\n\n[profile.bench]\nlto = \"thin\"\n";
        assert_eq!(
            release_profile(manifest),
            [
                "codegen-units=1",
                "debug=\"line-tables-only\"",
                "lto=\"fat\""
            ]
        );
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn own_release_profile_equals_the_root_manifests() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let own = release_profile(&std::fs::read_to_string(dir.join("Cargo.toml")).unwrap());
        let root = release_profile(&std::fs::read_to_string(dir.join("../Cargo.toml")).unwrap());
        assert!(!own.is_empty());
        assert_eq!(own, root);
    }
}
