//! One workload, one process: the timed run (`--trace 0`, end-to-end
//! metrics) or the traced run (`--trace 1`, per-layer metrics).

use crate::calib::{self, PassTiming};
use crate::json::{number, quote, Json};
use crate::names::{self, Kind, DEFAULT_SEED, END_TO_END, PER_LAYER};
use crate::spans::{self_seconds, Spans};
use crate::stats::{iqr_share, median, p75, ppm, ratio};
use crate::workloads::{load, multiseg, Counts, PassFacts, PassOutput, WorkloadDef};
use crate::{alloc, legs, Args};
use std::time::{Duration, Instant};

/// Untimed passes before the first timed one: the allocator grows to
/// its working size and the branch predictors settle.
const WARMUP_PASSES: usize = 2;
/// Fewest timed passes a run reports from, whatever `--seconds` says.
const MIN_TIMED_PASSES: usize = 5;
/// Shares of `--seconds` the traced run gives to its parts; the rest
/// goes to the workload's extra leg (Threads(2) passes, rate ladder).
const TRACED_PASS_SHARE: f64 = 0.30;
const TRACED_LEGS_SHARE: f64 = 0.45;
const MIN_TRACED_PASSES: usize = 2;

/// Accumulates output-check failures and the human-readable report.
#[derive(Default)]
struct Log {
    errors: Vec<String>,
}

impl Log {
    fn note(&self, line: &str) {
        println!("  {line}");
    }
    fn fail(&mut self, what: String) {
        println!("  CHECK FAILED: {what}");
        self.errors.push(what);
    }
    fn absorb(&mut self, pass: &str, out: &PassOutput) {
        for e in &out.errors {
            self.fail(format!("{pass}: {e}"));
        }
    }
    fn same_facts(&mut self, what: &str, a: &PassFacts, b: &PassFacts) {
        if a != b {
            self.fail(format!("{what}: {a:?} ≠ {b:?}"));
        }
    }
}

pub fn one(def: &WorkloadDef, args: &Args) -> bool {
    println!(
        "{} seed {} ({} run, {} s)",
        def.name,
        args.seed,
        if args.traced { "traced" } else { "timed" },
        args.seconds
    );
    let mut log = Log::default();
    let (facts, passes, metrics) = if args.traced {
        traced(def, args, &mut log)
    } else {
        timed(def, args, &mut log)
    };
    golden_check(def, args, &facts, &mut log);
    if args.write_golden {
        println!("GOLDEN {} {}", def.name, golden_entry(&facts));
    }
    for (name, value) in &metrics {
        if !value.is_finite() {
            log.fail(format!("metric {name} is not finite"));
        }
        println!("  {name} = {} {}", number(*value), unit_of(name));
    }
    let correct = log.errors.is_empty();
    println!(
        "{}",
        result_line(
            correct,
            facts.attempted * passes as u64,
            facts.failed * passes as u64,
            &metrics
        )
    );
    correct
}

/// The last line of a run: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*value),
                quote(unit_of(name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn unit_of(name: &str) -> &'static str {
    names::find(name).map_or("", |(unit, _)| unit)
}

/// One untraced pass: set-up (timed as a `setup_s` sample), then the
/// body bracketed by the reference kernel.
fn untraced_pass(def: &WorkloadDef, seed: u64, spans: &mut Spans) -> (f64, PassOutput, PassTiming) {
    let start = Instant::now();
    spans.enter("setup");
    let prepared = (def.setup)(seed, false, spans);
    spans.exit();
    let setup_s = start.elapsed().as_secs_f64();
    let (out, timing) = calib::timed(|| prepared.run(spans));
    (setup_s, out, timing)
}

/// The timed run: end-to-end metrics, tracing off.
fn timed(
    def: &WorkloadDef,
    args: &Args,
    log: &mut Log,
) -> (PassFacts, usize, Vec<(&'static str, f64)>) {
    let mut no_spans = Spans::new(false);
    let mut first: Option<PassOutput> = None;
    let mut warm_ref = calib::REF_NOMINAL;
    for _ in 0..WARMUP_PASSES {
        let (_, out, timing) = untraced_pass(def, args.seed, &mut no_spans);
        warm_ref = timing.ref_after;
        first.get_or_insert(out);
    }
    let first = first.expect("at least one warm-up pass");
    log.absorb("pass", &first);
    for n in &first.notes {
        log.note(n);
    }

    let (mut setups, mut cal, mut raw, mut refs) = (vec![], vec![], vec![], vec![]);
    // The reference rate just before a set-up is the previous pass's
    // closing one (the warm-up's for the first).
    let mut ref_before_setup = warm_ref;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || cal.len() < MIN_TIMED_PASSES {
        let (setup_s, out, timing) = untraced_pass(def, args.seed, &mut no_spans);
        // Every pass starts from a fresh instance built from the seed:
        // its simulated outcome has to repeat bit for bit.
        log.same_facts(
            "a pass did not repeat the first pass",
            &first.facts,
            &out.facts,
        );
        // Set-up is host time too: calibrated like a pass, by the
        // reference runs on either side of it.
        let setup_ref = (ref_before_setup + timing.ref_before) / 2.0;
        setups.push(setup_s * setup_ref / calib::REF_NOMINAL);
        ref_before_setup = timing.ref_after;
        cal.push(timing.calibrated(out.facts.ops as f64));
        raw.push(timing.raw(out.facts.ops as f64));
        refs.push(timing.ref_mean());
        log.note(&format!(
            "pass {:>2}: set-up {:.4} s, body {:.4} s, reference {:.2}/{:.2} Mpops/s, {:.0} ops/host-s, {:.0} ops/cal-s",
            cal.len(),
            setup_s,
            timing.wall_s,
            timing.ref_before / 1e6,
            timing.ref_after / 1e6,
            raw[raw.len() - 1],
            cal[cal.len() - 1]
        ));
    }
    let passes = cal.len();

    let mut facts = first.facts.clone();
    if def.name == "multiseg_scale" {
        // Latency comes from the finely stepped probe, which must have
        // simulated the very same network.
        let probe = multiseg::probe(args.seed);
        log.absorb("latency probe", &probe);
        for n in &probe.notes {
            log.note(n);
        }
        if (probe.facts.digest, probe.facts.ops) != (facts.digest, facts.ops) {
            log.fail(format!(
                "latency probe digest {:#018x} / {} ops ≠ timed pass {:#018x} / {} ops",
                probe.facts.digest, probe.facts.ops, facts.digest, facts.ops
            ));
        }
        facts = probe.facts;
    }

    let spread = iqr_share(&raw);
    log.note(&format!(
        "{passes} timed passes: ops/host-s median {:.0} (IQR {:.1} %), reference kernel median {:.2} Mpops/s, ops/cal-s p75 {:.0}",
        median(&raw),
        100.0 * spread,
        median(&refs) / 1e6,
        p75(&cal)
    ));
    let metrics = vec![
        ("setup_s", median(&setups)),
        ("ops_per_cal_s", p75(&cal)),
        ("peak_rss_mib", one_pass_rss_mib(def, args.seed, log)),
        ("sim_ops_per_s", facts.sim_ops_per_s()),
        ("sim_delay_typical_ns", facts.sim_delay_typical_ns),
        ("sim_delay_tail_ns", facts.sim_delay_tail_ns),
    ];
    debug_assert_eq!(metrics.len(), END_TO_END.len());
    (facts, passes, metrics)
}

/// Peak resident memory of one pass, measured in a child process that
/// does nothing else. This process's own `VmHWM` depends on how many
/// passes the time budget allowed and on what the allocator kept of
/// each (on `ring_saturated` it read 31–42 MiB for the same work); a
/// fresh process running one pass has one allocation history.
fn one_pass_rss_mib(def: &WorkloadDef, seed: u64, log: &mut Log) -> f64 {
    let child = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args([
                "--rss-probe",
                "--workload",
                def.name,
                "--seed",
                &seed.to_string(),
            ])
            .stdin(std::process::Stdio::null())
            .output() // waits for the child to end
    });
    let mib = child
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse::<f64>()
                .ok()
        });
    mib.unwrap_or_else(|| {
        log.fail("the one-pass memory probe did not report".into());
        0.0
    })
}

/// `--rss-probe`: run one untraced pass and print this process's
/// `VmHWM` in MiB.
pub fn rss_probe(def: &WorkloadDef, seed: u64) -> bool {
    let (_, out, _) = untraced_pass(def, seed, &mut Spans::new(false));
    println!("{}", number(peak_rss_mib()));
    out.errors.is_empty()
}

/// `VmHWM` of this process.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The traced run: spans around the harness's own calls, telemetry on,
/// per-layer counts, the layer legs, and the workload's extra leg.
fn traced(
    def: &WorkloadDef,
    args: &Args,
    log: &mut Log,
) -> (PassFacts, usize, Vec<(&'static str, f64)>) {
    let mut spans = Spans::new(true);
    let mut traced_out: Option<PassOutput> = None;
    let mut untraced_facts: Option<PassFacts> = None;
    let (mut traced_cal, mut untraced_cal, mut raw, mut refs, mut walls) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    let mut engine_violations = 0usize;

    // Warm up, then alternate traced (odd pass numbers: telemetry on)
    // and untraced (even) passes so both see the same host conditions.
    // The harness's spans are recorded in both.
    let _ = untraced_pass(def, args.seed, &mut Spans::new(false));
    let budget = args.seconds * TRACED_PASS_SHARE;
    let start = Instant::now();
    let mut pass = 0u32;
    while start.elapsed().as_secs_f64() < budget || traced_cal.len() < MIN_TRACED_PASSES {
        pass += 1;
        spans.set_pass(pass);
        spans.enter("setup");
        let prepared = (def.setup)(args.seed, true, &mut spans);
        spans.exit();
        let before = alloc::counts();
        let (out, timing) = calib::timed(|| {
            alloc::set_counting(true);
            let out = prepared.run(&mut spans);
            alloc::set_counting(false);
            out
        });
        let after = alloc::counts();
        allocs += after.0 - before.0;
        alloc_bytes += after.1 - before.1;
        traced_cal.push(timing.calibrated(out.facts.ops as f64));
        match &traced_out {
            Some(first) => log.same_facts(
                "a traced pass did not repeat the first",
                &first.facts,
                &out.facts,
            ),
            None => {
                log.absorb("traced pass", &out);
                traced_out = Some(out);
            }
        }

        pass += 1;
        spans.set_pass(pass);
        let (_, out, timing) = untraced_pass(def, args.seed, &mut spans);
        untraced_cal.push(timing.calibrated(out.facts.ops as f64));
        raw.push(timing.raw(out.facts.ops as f64));
        refs.push(timing.ref_mean());
        walls.push(timing.wall_s);
        if untraced_facts.is_none() {
            log.absorb("untraced pass", &out);
            engine_violations = out.errors.len();
            for n in &out.notes {
                log.note(n);
            }
            untraced_facts = Some(out.facts);
        }
    }
    let traced_out = traced_out.expect("at least one traced pass");
    let facts = untraced_facts.expect("at least one untraced pass");
    let n_traced = traced_cal.len();
    for n in &traced_out.notes {
        log.note(n);
    }
    // Tracing may not change what is simulated. (The multi-segment
    // latency fields are the probe's and stay 0 in both.)
    log.same_facts(
        "traced and untraced passes differ",
        &facts,
        &traced_out.facts,
    );

    let mut values: Counts = traced_out.counts.clone();
    let ops = facts.ops as f64;

    // ---- layer legs ----
    let leg_results = legs::run_all(Duration::from_secs_f64(args.seconds * TRACED_LEGS_SHARE));
    values.extend(leg_results.iter().copied());

    // ---- the workload's extra leg ----
    match def.name {
        "multiseg_scale" => threads2_leg(def, args, &untraced_cal, &facts, &mut values, log),
        "services_load" => ladder_leg(args, &mut values, log),
        "chaos_heal" => {
            values.insert(
                "chaos.run_ns_per_step",
                median(&walls) * 1e9 / crate::workloads::chaos::STEPS as f64,
            );
            values.insert("chaos.violations", engine_violations as f64);
        }
        _ => {}
    }

    // ---- spans: self times per traced pass ----
    let all = spans.spans();
    let per_pass = |name: &str| self_seconds(all, name, |pass| pass % 2 == 1) / n_traced as f64;
    // The legs are timed with telemetry off, so the time they are held
    // against is the untraced passes' advance self time.
    let advance_s = self_seconds(all, "advance", |pass| pass % 2 == 0) / n_traced as f64;
    values.insert("harness.inject_self_s", per_pass("inject"));
    values.insert("harness.advance_self_s", per_pass("advance"));
    values.insert("harness.drain_self_s", per_pass("drain"));
    values.insert("harness.verify_self_s", per_pass("verify"));
    values.insert(
        "harness.allocs_per_op",
        ratio(allocs as f64 / n_traced as f64, ops),
    );
    values.insert(
        "harness.alloc_bytes_per_op",
        ratio(alloc_bytes as f64 / n_traced as f64, ops),
    );
    values.insert("harness.ops_per_host_s_median", median(&raw));
    values.insert("harness.pass_spread", iqr_share(&raw));
    values.insert("harness.ref_mops_median", median(&refs) / 1e6);
    values.insert("harness.ops_failed_ppm", ppm(facts.failed, facts.attempted));
    values.insert(
        "telemetry.traced_overhead_ratio",
        ratio(median(&traced_cal), median(&untraced_cal)),
    );
    let events = values.get("sim.events_per_op").copied().unwrap_or(0.0) * ops;
    values.insert("sim.host_ns_per_event", ratio(advance_s * 1e9, events));

    // ---- attribution: Σ(layer count × that layer's leg) ÷ advance ----
    let terms = attribution_terms(&values, ops);
    let explained_s: f64 = terms.iter().map(|(_, s)| s).sum();
    let share = ratio(explained_s, advance_s);
    values.insert("harness.attributed_share", share);
    log.note(&format!(
        "attribution: untraced advance self time {:.4} s per pass; layer legs × counts explain {:.4} s ({:.1} %), unexplained remainder {:.4} s",
        advance_s,
        explained_s,
        100.0 * share,
        advance_s - explained_s
    ));
    for (layer, s) in &terms {
        log.note(&format!(
            "  {layer}: {s:.4} s ({:.1} %)",
            100.0 * ratio(*s, advance_s)
        ));
    }
    log.note(&format!(
        "tracing overhead: traced ÷ untraced ops/cal-s = {:.3} over {n_traced} pass pairs",
        values["telemetry.traced_overhead_ratio"]
    ));

    write_trace(
        def,
        args,
        &spans,
        &traced_out.counts,
        &terms,
        advance_s,
        log,
    );

    let metrics = PER_LAYER
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    (facts, 2 * n_traced, metrics)
}

/// `core.threads2_speedup` and the `Serial ≡ Threads(2)` check: the
/// same passes with two worker threads advancing the shards.
fn threads2_leg(
    def: &WorkloadDef,
    args: &Args,
    serial_cal: &[f64],
    serial: &PassFacts,
    values: &mut Counts,
    log: &mut Log,
) {
    let mut cal = vec![];
    let mut equal = true;
    for _ in 0..MIN_TRACED_PASSES {
        let mut spans = Spans::new(false);
        let prepared = multiseg::setup_threads2(args.seed, &mut spans);
        let (out, timing) = calib::timed(|| prepared.run(&mut spans));
        cal.push(timing.calibrated(out.facts.ops as f64));
        if &out.facts != serial {
            equal = false;
            log.fail(format!(
                "{}: Threads(2) {:?} ≠ Serial {:?}",
                def.name, out.facts, serial
            ));
        }
    }
    let speedup = ratio(median(&cal), median(serial_cal));
    values.insert("core.threads2_speedup", speedup);
    values.insert("core.mode_digests_equal", if equal { 1.0 } else { 0.0 });
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    log.note(&format!(
        "Threads(2) ÷ Serial ops/cal-s = {speedup:.2} on {cores} host core(s); digests {}",
        if equal { "equal" } else { "DIFFER" }
    ));
}

/// The rate ladder: which rung is the knee, and which class causes it.
fn ladder_leg(args: &Args, values: &mut Counts, log: &mut Log) {
    let rungs = load::ladder(args.seed);
    const NAMES: [&str; 4] = [
        "load.rung4000_failed_ppm",
        "load.rung8000_failed_ppm",
        "load.rung12000_failed_ppm",
        "load.rung16000_failed_ppm",
    ];
    for (rung, name) in rungs.iter().zip(NAMES) {
        values.insert(name, rung.failed_ppm);
        log.note(&format!(
            "ladder rung {} clients = {:.0} ops/sim-s offered: {:.0} ppm failed — {}",
            rung.population, rung.offered_ops_s, rung.failed_ppm, rung.note
        ));
    }
    let clean = load::max_clean_offered(&rungs);
    values.insert("load.max_clean_offered_ops_s", clean);
    match rungs.iter().find(|r| r.dirty_class.is_some()) {
        Some(knee) => log.note(&format!(
            "knee: clean up to {clean:.0} ops/sim-s; at {} clients the `{}` class gives way",
            knee.population,
            knee.dirty_class.unwrap_or("?")
        )),
        None => log.note(&format!(
            "no knee on this ladder: clean up to {clean:.0} ops/sim-s"
        )),
    }
    let timed_rung = rungs
        .iter()
        .find(|r| r.population == load::TIMED_POPULATION);
    if timed_rung.is_some_and(|r| r.dirty_class.is_some()) {
        log.fail("the timed rung's population is not clean on the ladder".into());
    }
}

/// Host seconds per pass each layer's leg cost explains, from the
/// counts of the traced pass. `aux.*` counts are absolute per pass;
/// `*_per_op` counts are multiplied back by `ops`.
fn attribution_terms(values: &Counts, ops: f64) -> Vec<(&'static str, f64)> {
    let v = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let aux = v;
    let ns = 1e-9;
    let frames = v("phy.tx_frames_per_op") * ops;
    let inserted = v("ring.inserted_per_op") * ops;
    let events = v("sim.events_per_op") * ops;
    let recoveries = (v("roster.episodes") - aux("aux.boot_episodes")).max(0.0);
    vec![
        (
            "ring (frame hops × stack_hop + own inserts × enqueue_packet)",
            ns * (frames * v("ring.stack_hop_ns") + inserted * v("ring.enqueue_packet_ns")),
        ),
        (
            "sim (events × queue_hold)",
            ns * events * v("sim.queue_hold_ns_per_pop"),
        ),
        (
            "cache (updates × apply_packet + seqlock writes × write_record + reads × try_read)",
            ns * (v("cache.updates_applied_per_op") * ops * v("cache.apply_packet_ns")
                + aux("aux.seqlock_writes") * v("cache.write_record_ns")
                + aux("aux.seqlock_reads") * v("cache.try_read_ns")),
        ),
        (
            "services (msgs sent × msg_send + assembled × msg_reassemble)",
            ns * (aux("aux.msgs_sent") * v("services.msg_send_256b_ns")
                + aux("aux.msgs_assembled") * v("services.msg_reassemble_256b_ns")),
        ),
        (
            "roster+topo (recoveries × (run_rostering + largest_ring))",
            ns * recoveries
                * (v("roster.run_rostering_16n_ns") + v("topo.largest_ring_crossbar16_ns")),
        ),
        (
            "load (arrivals × arrival_gen)",
            ns * v("load.offered") * v("load.arrival_gen_ns_per_arrival"),
        ),
    ]
}

/// `benchmark/out/<workload>.trace.json`: spans, counts, attribution.
fn write_trace(
    def: &WorkloadDef,
    args: &Args,
    spans: &Spans,
    counts: &Counts,
    terms: &[(&'static str, f64)],
    advance_s: f64,
    log: &mut Log,
) {
    let mut s = format!(
        "{{\n  \"workload\": {}, \"seed\": {},\n  \"spans\": [\n",
        quote(def.name),
        args.seed
    );
    let all = spans.spans();
    for (i, sp) in all.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"pass\": {}}}{}\n",
            quote(sp.name),
            sp.start_ns,
            sp.end_ns,
            sp.parent.map_or("null".to_string(), |p| p.to_string()),
            sp.pass,
            if i + 1 < all.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"counts\": {");
    let body: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), number(*v)))
        .collect();
    s.push_str(&body.join(", "));
    s.push_str("},\n  \"attribution\": {");
    let mut body: Vec<String> = terms
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), number(*v)))
        .collect();
    body.push(format!(
        "\"advance_self_s_per_pass\": {}",
        number(advance_s)
    ));
    s.push_str(&body.join(", "));
    s.push_str("}\n}\n");
    let dir = crate::benchmark_dir().join("out");
    let path = dir.join(format!("{}.trace.json", def.name));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, s)) {
        Ok(()) => log.note(&format!(
            "{} spans written to {}",
            all.len(),
            path.display()
        )),
        Err(e) => log.fail(format!("cannot write {}: {e}", path.display())),
    }
}

/// The facts `golden.json` pins, as a JSON object. The digest is a
/// string: a `u64` does not survive a trip through a JSON number.
fn golden_entry(f: &PassFacts) -> String {
    format!(
        "{{\"ops\": {}, \"attempted\": {}, \"failed\": {}, \"digest\": \"{:#018x}\"}}",
        f.ops, f.attempted, f.failed, f.digest
    )
}

/// For the default seed, the outcome must equal the committed golden
/// values; other seeds skip only this check.
fn golden_check(def: &WorkloadDef, args: &Args, facts: &PassFacts, log: &mut Log) {
    if args.seed != DEFAULT_SEED || args.write_golden {
        return;
    }
    let path = args
        .golden
        .clone()
        .unwrap_or_else(|| crate::benchmark_dir().join("golden.json"));
    let golden = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t));
    let entry = match &golden {
        Ok(doc) if doc.get("seed").and_then(Json::as_f64) == Some(DEFAULT_SEED as f64) => {
            doc.get("workloads").and_then(|w| w.get(def.name))
        }
        Ok(_) => None,
        Err(e) => {
            log.fail(format!("cannot read {}: {e}", path.display()));
            return;
        }
    };
    let Some(entry) = entry else {
        log.fail(format!(
            "{} has no entry for {} at seed {DEFAULT_SEED}",
            path.display(),
            def.name
        ));
        return;
    };
    let ours = Json::parse(&golden_entry(facts)).expect("golden entry is valid JSON");
    let differing: Vec<String> = ["ops", "attempted", "failed", "digest"]
        .iter()
        .filter(|key| entry.get(key) != ours.get(key))
        .map(|key| {
            format!(
                "{key}: golden {:?}, this run {:?}",
                entry.get(key),
                ours.get(key)
            )
        })
        .collect();
    if differing.is_empty() {
        log.note(&format!("golden: matches {}", path.display()));
    } else {
        log.fail(format!(
            "golden mismatch in {}: {}",
            path.display(),
            differing.join("; ")
        ));
    }
}

/// Which metrics must repeat bit for bit (for `--selfcheck`).
pub fn is_exact(name: &str) -> bool {
    names::find(name).is_some_and(|(_, kind)| kind == Kind::Exact)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_parses_and_lists_every_declared_name() {
        let e2e: Vec<(&'static str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.25e-3)).collect();
        let layers: Vec<(&'static str, f64)> = PER_LAYER.iter().map(|m| (m.name, 42.0)).collect();
        for (metrics, attempted) in [(e2e, 0u64), (layers, 1000)] {
            let doc = Json::parse(&result_line(true, attempted, 0, &metrics))
                .expect("result line is valid JSON");
            let keys: Vec<&str> = doc
                .as_object()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert!(
                doc.get("attempted").unwrap().as_f64().unwrap() >= 1.0,
                "attempted is at least 1"
            );
            let listed = doc.get("metrics").unwrap().as_object().unwrap();
            assert_eq!(listed.len(), metrics.len());
            for (name, value) in &metrics {
                let m = listed
                    .get(*name)
                    .unwrap_or_else(|| panic!("{name} missing from the result line"));
                assert_eq!(m.get("value").unwrap().as_f64(), Some(*value));
                assert_eq!(m.get("unit").unwrap().as_str(), Some(unit_of(name)));
                assert!(!unit_of(name).is_empty(), "{name} has no unit");
            }
        }
    }

    #[test]
    fn exactness_follows_the_tables() {
        assert!(is_exact("sim_ops_per_s") && is_exact("ring.forwarded_per_op"));
        assert!(
            !is_exact("ops_per_cal_s")
                && !is_exact("ring.stack_hop_ns")
                && !is_exact("no.such.metric")
        );
    }
}
