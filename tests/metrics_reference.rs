//! The metrics reference (`docs/METRICS.md`) cannot drift from the
//! code: the committed file must be byte-identical to the document
//! generated from `ampnet_telemetry::defs::ALL`, and the full-stack
//! telemetry exercise must register every metric in that catalog.

use ampnet::telemetry::defs;
use std::collections::BTreeSet;

/// `docs/METRICS.md` is exactly `defs::reference_doc()`. Regenerate
/// with `cargo run -p ampnet-bench --bin figures -- --metrics-doc`.
#[test]
fn metrics_doc_matches_registry_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/METRICS.md");
    let committed = std::fs::read_to_string(path).expect("docs/METRICS.md exists");
    let generated = defs::reference_doc();
    assert!(
        committed == generated,
        "docs/METRICS.md is stale; regenerate with\n  \
         cargo run -p ampnet-bench --bin figures -- --metrics-doc > docs/METRICS.md"
    );
}

/// Every cataloged metric has a live instrumentation site: after the
/// full-stack exercise (a cluster, a multi-segment coordinator and a
/// workload-engine run sharing one registry), the set of registered
/// defs equals `defs::ALL` exactly.
#[test]
fn exercise_registers_every_cataloged_metric() {
    let ex = ampnet_bench::metrics::telemetry_exercise(0xA3B1);
    let registered: BTreeSet<&str> =
        ex.tel.registered_defs().iter().map(|d| d.name).collect();
    let cataloged: BTreeSet<&str> = defs::ALL.iter().map(|d| d.name).collect();
    let unregistered: Vec<_> = cataloged.difference(&registered).collect();
    assert!(
        unregistered.is_empty(),
        "metrics in defs::ALL with no instrumentation site: {unregistered:?}"
    );
    let uncataloged: Vec<_> = registered.difference(&cataloged).collect();
    assert!(
        uncataloged.is_empty(),
        "registered metrics missing from defs::ALL: {uncataloged:?}"
    );
}
