//! Regenerate every table/figure of the AmpNet reproduction, and the
//! committed artifacts generated from the code.
//!
//! ```text
//! cargo run -p ampnet-bench --release --bin figures          # everything
//! cargo run -p ampnet-bench --release --bin figures -- E8    # one experiment
//! cargo run -p ampnet-bench --release --bin figures -- --json out.json
//! cargo run -p ampnet-bench --release --bin figures -- --check CHECK_models.json
//! cargo run -p ampnet-bench --release --bin figures -- --metrics METRICS_snapshot.json
//! cargo run -p ampnet-bench --release --bin figures -- --metrics-doc > docs/METRICS.md
//! cargo run -p ampnet-bench --release --bin figures -- --workloads-doc > docs/WORKLOADS.md
//! ```
//!
//! This binary reports what the simulated network *does* (experiment
//! tables, model-check verdicts and telemetry snapshots). How
//! fast the simulator runs, layer by layer, is measured by the repo
//! benchmark in `benchmark/` (see `BENCHMARK.json`), and nowhere else.
//!
//! `--check` runs the `ampnet-check` protocol models (seqlock,
//! semaphore, roster/failover on crossbar, torus and folded-Clos
//! plants, frame arena, slice planner under both lookahead policies)
//! to exhaustion and writes a JSON summary; any safety violation
//! prints its shortest counterexample trace and fails the run.
//!
//! `--metrics` runs the deterministic full-stack telemetry exercise
//! (`ampnet_bench::metrics`) and writes the registry snapshot; same
//! seed ⇒ byte-identical JSON. The two `--*-doc` modes print the
//! generated `docs/` references.

use ampnet_bench::experiments as ex;
use ampnet_bench::host_seqlock::e5_host_seqlock;
use ampnet_bench::report::{tables_to_json, Table};

/// `--check`: run the protocol models exhaustively and write a
/// JSON summary. State budget is far above the known space sizes
/// (hundreds to thousands of states) so `complete` acts as a canary
/// for accidental state-space blowups.
fn check_models(path: &str) {
    use ampnet_check::models::{arena, planner, roster, semaphore, seqlock};
    const BUDGET: usize = 2_000_000;
    let runs = [
        ("seqlock", seqlock::check_seqlock(BUDGET)),
        ("semaphore", semaphore::check_semaphore(BUDGET)),
        ("roster-failover", roster::check_roster(BUDGET)),
        ("roster-torus", roster::check_roster_torus(BUDGET)),
        ("roster-clos", roster::check_roster_clos(BUDGET)),
        ("frame-arena", arena::check_arena(BUDGET)),
        ("slice-planner", planner::check_planner(BUDGET)),
        ("slice-planner-fixed", planner::check_planner_fixed(BUDGET)),
    ];
    let mut ok = true;
    let mut entries = Vec::new();
    for (name, report) in &runs {
        println!("{}", report.summary(name));
        if let Some(cx) = &report.violation {
            print!("{}", cx.render());
            ok = false;
        }
        ok &= report.complete;
        entries.push(format!(
            concat!(
                "    {{\"model\": \"{}\", \"visited\": {}, ",
                "\"transitions\": {}, \"max_depth\": {}, ",
                "\"terminals\": {}, \"complete\": {}, \"violation\": {}}}"
            ),
            name,
            report.visited,
            report.transitions,
            report.max_depth,
            report.terminals,
            report.complete,
            report.violation.is_some(),
        ));
    }
    let total: usize = runs.iter().map(|(_, r)| r.visited).sum();
    let json = format!(
        "{{\n  \"state_budget\": {BUDGET},\n  \"models\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write(path, &json).expect("write check json");
    println!("wrote {path}");
    if ok {
        println!(
            "model check: {n}/{n} models exhaustive, {total} states total, 0 violations",
            n = runs.len()
        );
    } else {
        println!("model check: FAILED (violation or state budget exceeded)");
        std::process::exit(1);
    }
}

/// `--metrics`: run the deterministic full-stack telemetry exercise
/// and write the registry snapshot as JSON. Same seed ⇒ byte-identical
/// output.
fn metrics_snapshot(path: &str) {
    let ex = ampnet_bench::metrics::telemetry_exercise(0xA3B1);
    let snap = ex.snapshot();
    let json = snap.to_json();
    std::fs::write(path, &json).expect("write metrics snapshot");
    println!(
        "telemetry exercise: {} metric entries, {} flight event(s) recorded",
        snap.entries.len(),
        ex.tel.flight_recorded(),
    );
    println!("wrote {path}");
}

fn all_tables(quick: bool) -> Vec<Table> {
    let trials = if quick { 100 } else { 400 };
    vec![
        ex::e1_type_table(),
        ex::e2_wire_formats(),
        ex::e3_multi_stream(),
        ex::e4_flow_control(8),
        ex::e4_flow_control(16),
        ex::a1_pacing_ablation(),
        ex::e5_seqlock(true),
        e5_host_seqlock(if quick { 20_000 } else { 200_000 }, 4),
        ex::e5_seqlock(false), // A2
        ex::e6_semaphores(),
        ex::e7_redundancy(6, trials),
        ex::e7b_analytic(6, trials),
        ex::e8_rostering(),
        ex::a3_roster_ablation(),
        ex::e9_assimilation(),
        ex::e10_failover(),
    ]
}

/// One mode that replaces the experiment tables, as `(flag, default
/// path, run)`: `flag [PATH]` calls `run(PATH)`, or `run(default
/// path)` when no path follows the flag.
type Mode = (&'static str, &'static str, fn(&str));

/// The `--*-doc` modes print to stdout and ignore the path.
const MODES: &[Mode] = &[
    ("--check", "CHECK_models.json", check_models),
    ("--metrics", "METRICS_snapshot.json", metrics_snapshot),
    ("--metrics-doc", "", |_| print!("{}", ampnet_telemetry::defs::reference_doc())),
    ("--workloads-doc", "", |_| print!("{}", ampnet_load::reference_doc())),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for &(flag, default_path, run) in MODES {
        if let Some(i) = args.iter().position(|a| a == flag) {
            run(args.get(i + 1).map_or(default_path, String::as_str));
            return;
        }
    }
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let filter: Vec<&String> = args
        .iter()
        .filter(|a| !a.starts_with("--") && Some(a.as_str()) != json_path.as_deref())
        .collect();

    println!("AmpNet reproduction — experiment harness");
    println!("(paper: Apon & Wilbur, 'AmpNet — A Highly Available Cluster");
    println!(" Interconnection Network', IPDPS workshops 2003)");

    let tables: Vec<Table> = all_tables(quick)
        .into_iter()
        .filter(|t| {
            filter.is_empty() || filter.iter().any(|f| t.id.eq_ignore_ascii_case(f))
        })
        .collect();
    if tables.is_empty() {
        eprintln!("no experiment matches {filter:?}; ids are E1..E10, E5b, E7b, A1..A3");
        std::process::exit(2);
    }
    for t in &tables {
        print!("{}", t.render());
    }
    if let Some(path) = json_path {
        std::fs::write(&path, tables_to_json(&tables)).expect("write json");
        println!("\nwrote {path}");
    }
}
