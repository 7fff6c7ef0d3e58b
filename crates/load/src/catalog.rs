//! The workload catalog: one [`WorkloadDef`] per class the engine
//! drives, plus the generated `docs/WORKLOADS.md` reference and the
//! standard SLO set.
//!
//! The catalog is the single source of truth: the engine creates one
//! arrival generator and one [`crate::report::ClassStats`] per entry
//! (in this order), `reference_doc` renders the committed reference,
//! and a test diffs the two so the documentation cannot drift from
//! the code.

use ampnet_sim::SimDuration;

use crate::slo::SloSpec;

/// Static description of one workload class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    /// Class name, used in reports, SLO specs and telemetry.
    pub name: &'static str,
    /// Arrival discipline ("open-loop" classes follow the sweep's
    /// configured process; "closed-loop" classes pace themselves).
    pub arrival: &'static str,
    /// Engine parameters for the class (topics, slots, ports…).
    pub parameters: &'static str,
    /// The `ampnet-services` endpoints the class exercises.
    pub endpoints: &'static str,
    /// What completion (and therefore latency) means for the class.
    pub completion: &'static str,
    /// Paper slide the workload substantiates.
    pub evidence: &'static str,
}

impl WorkloadDef {
    /// One markdown table row.
    pub fn doc_row(&self) -> String {
        format!(
            "| `{}` | {} | {} | {} | {} | {} |",
            self.name, self.arrival, self.parameters, self.endpoints, self.completion, self.evidence
        )
    }
}

/// Every workload class the engine drives, in engine dispatch order.
pub const ALL: &[WorkloadDef] = &[
    WorkloadDef {
        name: "pubsub",
        arrival: "open-loop",
        parameters: "4 topics × 32 slots × 16 B, 2 subscribers/topic",
        endpoints: "AmpSubscribe publish via seqlock records; subscribers poll local replicas",
        completion: "record visible at a subscriber replica; ring overruns count as lag loss",
        evidence: "slide 12",
    },
    WorkloadDef {
        name: "cache",
        arrival: "open-loop",
        parameters: "16 files, 64 B ping-pong overwrites, paired reader per file",
        endpoints: "AmpFiles write/stat over the replicated file-store region",
        completion: "paired reader's local `stat` shows the written version",
        evidence: "slide 12",
    },
    WorkloadDef {
        name: "socket",
        arrival: "open-loop",
        parameters: "1 echo server (port 80), clients on port 5000, ledger-tagged requests",
        endpoints: "AmpIP datagram send/recv (request + echo round trip)",
        completion: "echo returns to the client; delivery audited by the chaos ledger",
        evidence: "slide 12",
    },
    WorkloadDef {
        name: "threads",
        arrival: "open-loop",
        parameters: "64-slot task table, random submitter → random target, Square tasks",
        endpoints: "AmpThreads spawn_remote/collect_remote with doorbell interrupts; a refused spawn (`SlotBusy`) fails the operation",
        completion: "submitter collects the result from its replica (slot freed network-wide)",
        evidence: "slide 12",
    },
    WorkloadDef {
        name: "sem",
        arrival: "closed-loop storm",
        parameters: "3 contenders × 8 rounds, 20 µs critical sections, word at region 0+2048",
        endpoints: "network semaphore TestAndSet at its home node",
        completion: "lock acquired (latency = request → held, from the storm's own histogram)",
        evidence: "slide 10",
    },
];

/// The default objective set every sweep cell is judged against.
///
/// Ceilings are calibrated against the healthy 6-node baseline with
/// ~3× headroom, so a passing verdict means "production-shaped load is
/// served at the latency the plant promises", and a chaos cell that
/// bends one shows exactly which guarantee degraded.
pub fn standard_slos() -> Vec<SloSpec> {
    vec![
        SloSpec {
            class: "pubsub",
            p99_max: SimDuration::from_micros(400),
            min_delivered_ppm: 990_000,
            max_degraded_window: SimDuration::from_millis(1),
        },
        SloSpec {
            class: "cache",
            p99_max: SimDuration::from_micros(600),
            min_delivered_ppm: 990_000,
            max_degraded_window: SimDuration::from_millis(1),
        },
        SloSpec {
            class: "socket",
            p99_max: SimDuration::from_micros(800),
            min_delivered_ppm: 990_000,
            max_degraded_window: SimDuration::from_millis(1),
        },
        SloSpec {
            class: "threads",
            p99_max: SimDuration::from_millis(1),
            min_delivered_ppm: 990_000,
            max_degraded_window: SimDuration::from_millis(1),
        },
        SloSpec {
            class: "sem",
            p99_max: SimDuration::from_millis(3),
            min_delivered_ppm: 950_000,
            max_degraded_window: SimDuration::from_millis(2),
        },
    ]
}

/// The complete `docs/WORKLOADS.md` document, generated from the
/// catalog. `figures --workloads-doc` prints this verbatim and a test
/// diffs it against the committed file, so the reference cannot drift
/// from the engine.
pub fn reference_doc() -> String {
    let mut doc = String::from(
        "# AmpNet workload reference\n\
         \n\
         Every workload class the `ampnet-load` engine drives, one row\n\
         per `WorkloadDef` in `ampnet_load::catalog::ALL`. This file is\n\
         generated — regenerate with:\n\
         \n\
         ```text\n\
         cargo run -p ampnet-bench --bin figures -- --workloads-doc > docs/WORKLOADS.md\n\
         ```\n\
         \n\
         A test (`tests/workloads_reference.rs`) diffs this document\n\
         against the catalog, so edits belong in\n\
         `crates/load/src/catalog.rs`, not here.\n\
         \n\
         Open-loop classes share the sweep cell's arrival process\n\
         (`poisson`, `pareto`, or `diurnal`), normalised to the same\n\
         mean offered rate: population × 25 ops/s, split evenly across\n\
         the classes. Arrivals are counted at full population fidelity;\n\
         each tick dispatches at most `batch_cap` representative service\n\
         operations per class, so the simulated work is bounded by the\n\
         tick count while the offered-load accounting tracks the modeled\n\
         million-client population.\n\
         \n\
         | class | arrival | parameters | endpoints | completion | evidence |\n\
         |---|---|---|---|---|---|\n",
    );
    for def in ALL {
        doc.push_str(&def.doc_row());
        doc.push('\n');
    }
    doc.push_str(
        "\n\
         ## SLO classes\n\
         \n\
         Each class is judged on three objectives (inclusive bounds,\n\
         see `ampnet_load::SloSpec`): tail latency (`p99 ≤ X`),\n\
         delivered fraction (`completed/attempted ≥ Y` ppm), and the\n\
         longest degraded-throughput window (consecutive ticks with\n\
         work in flight but zero completions — the application-visible\n\
         outage while the ring reconverges).\n\
         \n\
         | class | p99 ≤ | delivered ≥ | degraded window ≤ |\n\
         |---|---|---|---|\n",
    );
    for slo in standard_slos() {
        doc.push_str(&format!(
            "| `{}` | {} µs | {} ppm | {} µs |\n",
            slo.class,
            slo.p99_max.as_nanos() / 1_000,
            slo.min_delivered_ppm,
            slo.max_degraded_window.as_nanos() / 1_000,
        ));
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn catalog_names_are_unique() {
        let names: BTreeSet<_> = ALL.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), ALL.len(), "duplicate workload name");
    }

    #[test]
    fn every_class_has_a_standard_slo_and_vice_versa() {
        let classes: BTreeSet<_> = ALL.iter().map(|w| w.name).collect();
        let slo_classes: BTreeSet<_> = standard_slos().iter().map(|s| s.class).collect();
        assert_eq!(classes, slo_classes);
    }

    #[test]
    fn doc_lists_every_class() {
        let doc = reference_doc();
        for w in ALL {
            assert!(doc.contains(&format!("`{}`", w.name)), "{} missing", w.name);
        }
        assert!(doc.contains("--workloads-doc"));
    }
}
