//! Old-vs-new equivalence guard for the NodeStack data-plane refactor.
//!
//! The golden values below were captured from the pre-refactor tree
//! (commit bd0f695, `RingNode`/`Cluster` monolith driving `MicroPacket`
//! values through the event loop). The refactored layered `NodeStack`
//! must reproduce them bit-for-bit: identical milestone-trace digests
//! for a fixed seed, and identical segment-level packet accounting.
//! Any divergence means the refactor changed event ordering or packet
//! semantics, not just code structure.
//!
//! The milestone-line golden was captured from commit 6512218, when each
//! line was still a string built at its call site. The trace is now
//! rendered from the observation journal and must print every line, and
//! fold every digest, exactly as before.

use ampnet::chaos::{FaultOp, Scenario, Traffic};
use ampnet_core::{ClusterConfig, SimDuration};
use ampnet_phy::LinkParams;
use ampnet_ring::{Segment, SegmentParams};

/// Pre-refactor `Trace::digest()` of the fixed chaos scenario below.
const GOLDEN_TRACE_DIGEST: u64 = 0x024e2491afb824f9;

/// Pre-refactor delivery accounting of the fixed all-to-all segment.
const GOLDEN_SEG_DELIVERED: u64 = 79705;
const GOLDEN_SEG_PER_SOURCE: [u64; 6] =
    [102696, 110640, 138184, 115392, 64112, 106616];

fn golden_scenario() -> Scenario {
    Scenario::builder(ClusterConfig::small(6).with_seed(0xA11CE))
        .traffic(Traffic::all_to_all())
        .traffic(Traffic::ping_pong(1, 4))
        .fault_in(
            SimDuration::from_millis(8),
            FaultOp::ErrorBurst { node: 2, seed: 77, errors: 9 },
        )
        .fault_in(SimDuration::from_millis(14), FaultOp::CrashNode(3))
        .fault_in(SimDuration::from_millis(22), FaultOp::CutFiber(0, 1))
        .standard_invariants()
        .build()
}

#[test]
fn chaos_trace_digest_matches_pre_refactor_golden() {
    let report = golden_scenario().run();
    assert!(report.ok(), "{}", report.summary());
    assert_eq!(
        report.trace_digest, GOLDEN_TRACE_DIGEST,
        "trace digest diverged from the pre-refactor golden \
         (got {:#018x}); the refactor changed observable behavior",
        report.trace_digest
    );
}

#[test]
fn segment_all_to_all_matches_pre_refactor_golden() {
    let mut seg = Segment::new(
        SegmentParams {
            n_nodes: 6,
            link: LinkParams::gigabit(25.0),
            ..Default::default()
        },
        0xBEEF,
    );
    seg.all_to_all_broadcast(1.5);
    let r = seg.run_for(SimDuration::from_millis(3));
    assert_eq!(r.drops, 0);
    assert_eq!(
        (r.delivered_packets, r.per_source_bytes.as_slice()),
        (GOLDEN_SEG_DELIVERED, GOLDEN_SEG_PER_SOURCE.as_slice()),
        "segment accounting diverged from the pre-refactor golden"
    );
}

/// Prints the goldens (run with --nocapture and --ignored to refresh).
#[test]
#[ignore = "golden refresh helper, not a check"]
fn print_goldens() {
    let report = golden_scenario().run();
    println!("GOLDEN_TRACE_DIGEST = {:#018x}", report.trace_digest);
    let mut seg = Segment::new(
        SegmentParams {
            n_nodes: 6,
            link: LinkParams::gigabit(25.0),
            ..Default::default()
        },
        0xBEEF,
    );
    seg.all_to_all_broadcast(1.5);
    let r = seg.run_for(SimDuration::from_millis(3));
    println!("GOLDEN_SEG_DELIVERED = {}", r.delivered_packets);
    println!("GOLDEN_SEG_PER_SOURCE = {:?}", r.per_source_bytes);
    let (dump, digest) = all_milestone_lines();
    print!("GOLDEN_MILESTONE_DUMP:\n{dump}");
    println!("GOLDEN_MILESTONE_DIGEST = {digest:#018x}");
}

/// Every milestone line the cluster can print, driven from two small
/// clusters: a six-node crossbar that takes a detected and escalated
/// bit-error burst, a dead spare fiber the background sweep finds, its
/// repair, and the death of a counter-app leader (failure rostering,
/// failover takeover, certification after every episode); and a
/// two-node crossbar that loses both nodes (no survivors).
fn all_milestone_lines() -> (String, u64) {
    use ampnet_core::{
        Cluster, Component, CounterAppConfig, FailoverPolicy, NodeId, RecordLayout, SwitchId,
    };
    let mut c = Cluster::new(ClusterConfig::small(6).with_seed(0x7ACE));
    c.enable_trace(256);
    c.enable_background_sweep(SimDuration::from_millis(2));
    c.run_for(SimDuration::from_millis(10));
    let t0 = c.now();
    let at = |ms| t0 + SimDuration::from_millis(ms);
    c.start_counter_app(CounterAppConfig {
        members: vec![(1, 90), (2, 70), (3, 80)],
        policy: FailoverPolicy {
            failover_period: SimDuration::from_millis(1),
            ..Default::default()
        },
        counter_layout: RecordLayout { region: 0, offset: 4096, data_len: 8 },
        heartbeat_layout: RecordLayout { region: 0, offset: 4160, data_len: 8 },
        deadline: at(40),
    })
    .unwrap();
    c.schedule_error_burst(at(3), 2, 77, 9);
    c.schedule_failure(at(8), Component::Link(NodeId(4), SwitchId(2)));
    c.schedule_repair(at(14), Component::Link(NodeId(4), SwitchId(2)));
    c.schedule_failure(at(18), Component::Node(NodeId(1)));
    c.run_until(at(45));

    let mut d = Cluster::new(ClusterConfig::small(2).with_seed(0x7ACF));
    d.enable_trace(256);
    d.run_for(SimDuration::from_millis(10));
    d.schedule_failure(d.now(), Component::Node(NodeId(1)));
    d.run_for(SimDuration::from_millis(5));
    d.schedule_failure(d.now(), Component::Node(NodeId(0)));
    d.run_for(SimDuration::from_millis(5));

    let dump = c.trace().dump() + &d.trace().dump();
    let digest = ampnet_sim::Fnv64::from_state(c.trace().digest())
        .fold_u64(d.trace().digest())
        .finish();
    (dump, digest)
}

/// The rendered milestone stream of [`all_milestone_lines`], captured
/// before the trace became a rendering of the observation journal.
const GOLDEN_MILESTONE_DUMP: &str = "\
[   207.132us] INFO roster   epoch 1 live: 6 nodes in 2.01 ring tours (Boot)
[   214.494us] INFO diag     epoch 1 certified: echo ok, replicas uniform
[    13.000ms] WARN phy      node 2: bit-error burst, 9 injected, 14 violations
[    13.000ms] WARN phy      node 2: burst escalated, Link(NodeId(2), SwitchId(0)) lost sync
[    13.000ms] WARN roster   Link(NodeId(2), SwitchId(0)) failed; epoch 2 rostering, ETA 13.217ms
[    13.217ms] INFO roster   epoch 2 live: 6 nodes in 2.11 ring tours (Failure(Link(NodeId(2), SwitchId(0))))
[    13.224ms] INFO diag     epoch 2 certified: echo ok, replicas DIVERGED
[    14.000ms] WARN diag     background sweep found failed spare Link(NodeId(2), SwitchId(0))
[    18.000ms] INFO roster   Link(NodeId(4), SwitchId(2)) failed but is spare; ring unaffected
[    18.000ms] WARN diag     background sweep found failed spare Link(NodeId(4), SwitchId(2))
[    24.000ms] INFO repair   Link(NodeId(4), SwitchId(2)) repaired
[    28.000ms] WARN roster   Node(NodeId(1)) failed; epoch 3 rostering, ETA 28.188ms
[    28.188ms] INFO roster   epoch 3 live: 5 nodes in 2.19 ring tours (Failure(Node(NodeId(1))))
[    28.194ms] INFO diag     epoch 3 certified: echo ok, replicas uniform
[    30.125ms] WARN failover node 3 takes control of group GroupId(1) (outage 2.125ms)
[    68.668us] INFO roster   epoch 1 live: 2 nodes in 2.00 ring tours (Boot)
[    71.122us] INFO diag     epoch 1 certified: echo ok, replicas uniform
[    10.000ms] WARN roster   Node(NodeId(1)) failed; epoch 2 rostering, ETA 10.049ms
[    10.049ms] INFO roster   epoch 2 live: 1 nodes in 2.87 ring tours (Failure(Node(NodeId(1))))
[    10.051ms] INFO diag     epoch 2 certified: echo ok, replicas uniform
[    15.000ms] WARN roster   Node(NodeId(0)) failed; no survivors
";

/// The two clusters' trace digests of [`all_milestone_lines`], folded.
const GOLDEN_MILESTONE_DIGEST: u64 = 0x2706ba8593e8f725;

#[test]
fn every_milestone_line_matches_pre_journal_golden() {
    let (dump, digest) = all_milestone_lines();
    assert_eq!(dump, GOLDEN_MILESTONE_DUMP, "a milestone line changed");
    assert_eq!(digest, GOLDEN_MILESTONE_DIGEST, "got {digest:#018x}");
}
