//! End-to-end observability guarantees: snapshot determinism, flight
//! recorder behavior under load, and the chaos engine's flight dump on
//! invariant failure.

use ampnet::chaos::{CheckCtx, FaultOp, Invariant, Scenario, Traffic};
use ampnet::core::{Cluster, ClusterConfig, SimDuration};

/// Same seed, same schedule ⇒ byte-identical snapshot JSON. This is
/// what makes the CI artifact diffable across runs.
#[test]
fn same_seed_snapshot_is_byte_identical() {
    let a = ampnet_bench::metrics::telemetry_exercise(0xA3B1).snapshot().to_json();
    let b = ampnet_bench::metrics::telemetry_exercise(0xA3B1).snapshot().to_json();
    assert!(a == b, "same-seed snapshots differ");
    assert!(a.contains("\"snapshot\": \"ampnet_metrics\""));
}

/// The full-stack snapshot, pinned byte for byte: every counter, gauge
/// and histogram the exercise records, over every layer. A change that
/// moves where a count is kept (the MAC's hop counters are published
/// from its stats at snapshot and when a stack is dropped) must leave
/// this digest alone; one that drops or snapshots a stack without
/// publishing what it owes moves it.
#[test]
fn full_stack_snapshot_is_pinned() {
    let json = ampnet_bench::metrics::telemetry_exercise(0xA3B1).snapshot().to_json();
    let digest = ampnet::sim::fnv64(json.as_bytes());
    assert_eq!(digest, 0x2494_c241_5c8b_5e90, "snapshot digest {digest:#018x}");
}

/// A different seed still yields the same instrument set (registration
/// is structural, not data-dependent).
#[test]
fn different_seed_same_instruments() {
    let a = ampnet_bench::metrics::telemetry_exercise(1).snapshot();
    let b = ampnet_bench::metrics::telemetry_exercise(2).snapshot();
    assert_eq!(a.entries.len(), b.entries.len());
}

/// A tiny flight ring under real cluster traffic wraps around: the
/// newest window is retained, older events are counted as dropped.
#[test]
fn flight_recorder_wraps_under_cluster_traffic() {
    let mut cluster = Cluster::new(ClusterConfig::small(4).with_seed(9));
    cluster.enable_telemetry(8); // tiny ring; traffic records far more
    cluster.run_for(SimDuration::from_millis(5));
    for _ in 0..10 {
        for src in 0..4 {
            for dst in 0..4 {
                if src != dst {
                    cluster.send_message(src, dst, 1, b"wrap");
                }
            }
        }
        cluster.run_for(SimDuration::from_millis(1));
    }
    let tel = cluster.telemetry();
    assert_eq!(tel.flight_len(), 8, "ring retains exactly its capacity");
    assert!(tel.flight_recorded() > 8, "traffic recorded more than the ring holds");
    let dump = cluster.flight_dump();
    assert!(dump.contains("8 event(s) retained"), "{dump}");
    assert!(dump.contains("dropped to wraparound"), "{dump}");
}

/// Trips once the cluster has completed a second roster episode —
/// i.e. as soon as any fault actually disturbs the ring.
struct FailOnSecondEpisode;
impl Invariant for FailOnSecondEpisode {
    fn name(&self) -> &'static str {
        "fail-on-second-episode"
    }
    fn check(&self, ctx: &CheckCtx<'_>) -> Result<(), String> {
        if ctx.cluster.roster_history().len() >= 2 {
            Err(format!("{} episodes", ctx.cluster.roster_history().len()))
        } else {
            Ok(())
        }
    }
}

/// An invariant failure attaches the flight-recorder timeline to the
/// report, next to the milestone trace: the correlated plane events
/// leading up to the violation.
#[test]
fn invariant_failure_attaches_flight_dump() {
    let report = Scenario::builder(ClusterConfig::small(5).with_seed(3))
        .traffic(Traffic::all_to_all())
        .fault_in(SimDuration::from_millis(8), FaultOp::CrashNode(4))
        .invariant(FailOnSecondEpisode)
        .build()
        .run();
    assert!(!report.ok());
    assert!(report.flight_dump.starts_with("flight recorder:"), "{}", report.flight_dump);
    assert!(
        report.flight_dump.contains("membership"),
        "the dump shows the roster reaction:\n{}",
        report.flight_dump
    );
    // A passing run carries no dump.
    let clean = Scenario::builder(ClusterConfig::small(5).with_seed(3))
        .traffic(Traffic::all_to_all())
        .standard_invariants()
        .build()
        .run();
    assert!(clean.ok(), "{}", clean.summary());
    assert!(clean.flight_dump.is_empty());
}
