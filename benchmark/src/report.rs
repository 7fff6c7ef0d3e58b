//! `--workload all`, `--selfcheck` and `--spread`: every run in a child
//! process of its own, as the acceptance driver runs them, and the
//! comparisons across runs.

use crate::json::Json;
use crate::names::{Better, DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::is_exact;
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// One child's result line, parsed.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    golden: Option<String>,
}

/// Run one workload in a child process, echoing its report.
fn child(workload: &str, traced: bool, args: &Args) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(g) = &args.golden {
        cmd.arg("--golden").arg(g);
    }
    if args.write_golden {
        cmd.arg("--write-golden");
    }
    // `output()` waits for the child to end before it returns.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let Some((last, report)) = lines.split_last() else {
        return Err(format!(
            "{workload}: child printed nothing (status {})",
            out.status
        ));
    };
    for l in report {
        println!("{l}");
    }
    let doc =
        Json::parse(last).map_err(|e| format!("{workload}: result line does not parse: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{workload}: result line has no metrics"))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let correct = doc.get("correct").and_then(Json::as_bool) == Some(true) && out.status.success();
    let golden = report
        .iter()
        .find_map(|l| l.strip_prefix(&format!("GOLDEN {workload} ")))
        .map(str::to_string);
    Ok(ChildResult {
        correct,
        metrics,
        golden,
    })
}

/// Metric values by `(workload, metric)`.
type MetricTable = BTreeMap<(String, String), f64>;

/// Every workload, timed then traced. Returns all metrics, whether
/// every output check held, and the `GOLDEN` entries by workload.
fn full_set(args: &Args) -> (MetricTable, bool, Vec<(String, String)>) {
    let mut all = BTreeMap::new();
    let mut ok = true;
    let mut golden = vec![];
    for w in &WORKLOADS {
        for traced in [false, true] {
            match child(w.name, traced, args) {
                Ok(r) => {
                    ok &= r.correct;
                    if !r.correct {
                        println!(
                            "  {} ({}) reported incorrect outputs",
                            w.name,
                            if traced { "traced" } else { "timed" }
                        );
                    }
                    for (k, v) in r.metrics {
                        all.insert((w.name.to_string(), k), v);
                    }
                    if let (false, Some(g)) = (traced, r.golden) {
                        golden.push((w.name.to_string(), g));
                    }
                }
                Err(e) => {
                    println!("  {e}");
                    ok = false;
                }
            }
        }
    }
    (all, ok, golden)
}

pub fn run_all(args: &Args) -> bool {
    let (all, ok, golden) = full_set(args);
    println!("\nend-to-end metrics (seed {})", args.seed);
    print!("{:<24}", "");
    for w in &WORKLOADS {
        print!("{:>18}", w.name);
    }
    println!();
    for m in &END_TO_END {
        print!("{:<24}", format!("{} [{}]", m.name, m.unit));
        for w in &WORKLOADS {
            let v = all
                .get(&(w.name.to_string(), m.name.to_string()))
                .copied()
                .unwrap_or(f64::NAN);
            print!("{:>18}", format!("{v:.6}"));
        }
        println!();
    }
    if args.write_golden && ok && args.seed == DEFAULT_SEED {
        let body: Vec<String> = golden
            .iter()
            .map(|(w, g)| format!("    \"{w}\": {g}"))
            .collect();
        let text = format!(
            "{{\n  \"seed\": {DEFAULT_SEED},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            body.join(",\n")
        );
        let path = crate::benchmark_dir().join("golden.json");
        match std::fs::write(&path, text) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                println!("cannot write {}: {e}", path.display());
                return false;
            }
        }
    }
    println!(
        "{}",
        if ok {
            "all output checks passed"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    ok
}

/// The acceptance rule's spread: `n` timed runs per workload, each on
/// another seed; per end-to-end metric the inter-quartile range as a
/// share of the median, held against the metric's bound. A benchmark
/// is steady when every spread is below a third of its bound
/// (`setup_s` is exempt from the spread rule).
pub fn spread(args: &Args, n: u64) -> bool {
    let mut ok = true;
    for w in &WORKLOADS {
        let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for i in 0..n {
            let run = Args {
                seed: args.seed.wrapping_add(i),
                golden: args.golden.clone(),
                workload: String::new(),
                ..*args
            };
            match child(w.name, false, &run) {
                Ok(r) => {
                    ok &= r.correct;
                    for m in &END_TO_END {
                        samples
                            .entry(m.name)
                            .or_default()
                            .extend(r.metrics.get(m.name));
                    }
                }
                Err(e) => {
                    println!("  {e}");
                    ok = false;
                }
            }
        }
        println!("spread of {} over {n} seeds from {}", w.name, args.seed);
        for m in &END_TO_END {
            let v = &samples[m.name];
            let share = crate::stats::iqr_share(v);
            let verdict = if m.name == "setup_s" {
                "exempt"
            } else if share <= m.bound / 3.0 {
                "steady"
            } else if share <= m.bound {
                "within bound"
            } else {
                ok = false;
                "OVER BOUND"
            };
            println!(
                "  {:<24} median {:<22} IQR/median {:>6.2} %  bound {:>4.0} %  {verdict}",
                m.name,
                crate::stats::median(v),
                100.0 * share,
                100.0 * m.bound
            );
        }
    }
    ok
}

/// Is `b` worse than `a` by more than `bound` (a share of `a`)?
pub fn worse_by_more_than(a: f64, b: f64, better: Better, bound: f64) -> bool {
    let worsening = match better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    };
    worsening > bound * a.abs()
}

/// The full set twice; host metrics of B within their bound of A (in
/// either direction), every simulated metric and count identical.
pub fn selfcheck(args: &Args) -> bool {
    println!("=== set A ===");
    let (a, ok_a, _) = full_set(args);
    println!("=== set B ===");
    let (b, ok_b, _) = full_set(args);
    let mut ok = ok_a && ok_b;
    println!(
        "\n=== selfcheck: set A against set B (seed {}, {} s runs) ===",
        args.seed, args.seconds
    );
    for w in &WORKLOADS {
        println!("{}", w.name);
        let get = |set: &MetricTable, name: &str| {
            set.get(&(w.name.to_string(), name.to_string())).copied()
        };
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (get(&a, m.name), get(&b, m.name)) else {
                println!("  {:<44} MISSING", m.name);
                ok = false;
                continue;
            };
            let (verdict, rule) = if is_exact(m.name) {
                (x == y, "identical".to_string())
            } else {
                // setup_s: within its bound or within 1 ms, whichever is looser.
                let tiny = m.name == "setup_s" && (x - y).abs() <= 1e-3;
                let within = !worse_by_more_than(x, y, m.better, m.bound)
                    && !worse_by_more_than(y, x, m.better, m.bound);
                (within || tiny, format!("within {:.0} %", 100.0 * m.bound))
            };
            ok &= verdict;
            println!(
                "  {:<44} A {:<22} B {:<22} {:+.2} %  {} ({rule})",
                m.name,
                x,
                y,
                100.0 * (y - x) / x.abs().max(f64::MIN_POSITIVE),
                if verdict { "PASS" } else { "FAIL" }
            );
        }
        for m in &PER_LAYER {
            let (Some(x), Some(y)) = (get(&a, m.name), get(&b, m.name)) else {
                println!("  {:<44} MISSING", m.name);
                ok = false;
                continue;
            };
            if is_exact(m.name) {
                ok &= x == y;
                println!(
                    "  {:<44} A {:<22} B {:<22} {}",
                    m.name,
                    x,
                    y,
                    if x == y {
                        "PASS (identical)"
                    } else {
                        "FAIL (must be identical)"
                    }
                );
            } else {
                println!(
                    "  {:<44} A {:<22} B {:<22} {:+.2} %  (host time, no bound)",
                    m.name,
                    x,
                    y,
                    100.0 * (y - x) / x.abs().max(f64::MIN_POSITIVE)
                );
            }
        }
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction_and_bound() {
        assert!(!worse_by_more_than(100.0, 91.0, Better::Higher, 0.10));
        assert!(worse_by_more_than(100.0, 89.0, Better::Higher, 0.10));
        assert!(
            !worse_by_more_than(100.0, 150.0, Better::Higher, 0.10),
            "an improvement is never a regression"
        );
        assert!(worse_by_more_than(1.0, 1.3, Better::Lower, 0.25));
        assert!(!worse_by_more_than(1.0, 1.2, Better::Lower, 0.25));
        assert!(!worse_by_more_than(1.0, 0.1, Better::Lower, 0.25));
    }
}
