//! Tier-1 acceptance for the sharded-PDES engine: same seed ⇒ same
//! digest AND byte-identical merged metrics, whether the shards
//! advance on one thread (`ParallelMode::Serial`) or in chunks on
//! scoped threads (`Threads(2)`, `Threads(3)`, `Threads(8)`,
//! `Threads(65)`: over the 3- and 4-shard networks below that is even
//! chunks, uneven chunks `[2, 1]`, a thread count that does not divide
//! the shards, and more threads than shards) — and that contract holds
//! under BOTH slice-sizing policies ([`Lookahead::Fixed`], the PR-5
//! reference decision, and [`Lookahead::Adaptive`], the default). This
//! is the determinism contract that makes the threaded mode usable at
//! all — if it ever fails, every reproducibility guarantee of the
//! workspace is off.
//!
//! The adaptive-specific legs pin the three amortizations the planner
//! adds: slice growth through quiet phases (far fewer boundaries than
//! Fixed on the same scenario), exchange elision (counted, mode-
//! invariant), and quiescent-shard skipping — including the critical
//! wake-up path where a long-idle segment receives a bridge crossing
//! and must resume at exactly the crossing's maturity.

use ampnet::chaos::multiseg::MultiSegScenario;
use ampnet::chaos::FaultOp;
use ampnet::core::{ClusterConfig, GlobalAddr, Lookahead, MultiSegment, ParallelMode, SimDuration};

fn ga(segment: u8, node: u8) -> GlobalAddr {
    GlobalAddr { segment, node }
}

const MODES: [ParallelMode; 5] = [
    ParallelMode::Serial,
    ParallelMode::Threads(2),
    ParallelMode::Threads(3),
    ParallelMode::Threads(8),
    ParallelMode::Threads(65),
];

const POLICIES: [Lookahead; 2] = [Lookahead::Fixed, Lookahead::Adaptive];

/// Build a 4-segment ring-of-segments network, run cross-segment
/// all-to-router traffic, and return (digest, merged metrics JSON).
fn healthy_run(mode: ParallelMode, policy: Lookahead) -> (u64, String) {
    let mut net = MultiSegment::new(
        (0..4u64)
            .map(|s| ClusterConfig::small(4).with_seed(700 + s))
            .collect(),
    );
    for s in 0..4u8 {
        // node 3 of segment s bridges to node 0 of segment s+1 (ring).
        net.add_bridge(ga(s, 3), ga((s + 1) % 4, 0), SimDuration::from_micros(5));
    }
    net.enable_traces(4096);
    net.enable_telemetry(64);
    net.set_parallel_mode(mode);
    net.set_lookahead(policy);
    let slice = net.min_bridge_latency().unwrap();

    let t0 = net.segment(0).now() + SimDuration::from_millis(1);
    net.run_until(t0, slice);
    // Cross-segment mesh: every segment sends to every other.
    for s in 0..4u8 {
        for d in 0..4u8 {
            if s != d {
                net.send_global(ga(s, 1), ga(d, 2), format!("m-{s}-{d}").as_bytes());
            }
        }
    }
    net.run_until(t0 + SimDuration::from_millis(2), slice);

    // Every datagram must have arrived, identically in every mode.
    let mut got = 0;
    for d in 0..4u8 {
        while net.pop_global(ga(d, 2)).is_some() {
            got += 1;
        }
    }
    assert_eq!(got, 12, "all 12 cross-segment datagrams delivered");
    assert_eq!(net.unroutable, 0);

    (net.digest(), net.merged_metrics_snapshot().to_json())
}

#[test]
fn healthy_run_is_mode_invariant_under_both_policies() {
    for policy in POLICIES {
        let (digest, metrics) = healthy_run(ParallelMode::Serial, policy);
        assert_ne!(digest, 0);
        assert!(metrics.contains("mac_inserted"), "metrics actually merged");
        for mode in &MODES[1..] {
            let (d, m) = healthy_run(*mode, policy);
            assert_eq!(digest, d, "trace digest differs under {mode:?}/{policy:?}");
            assert_eq!(metrics, m, "merged metrics differ under {mode:?}/{policy:?}");
        }
    }
}

/// Chaos leg: a mid-run fiber cut on segment 1 (forcing a roster
/// episode inside the sliced run) plus traffic before, during and
/// after the cut — the digest and metrics must still be mode-invariant.
fn chaos_scenario(policy: Lookahead) -> MultiSegScenario {
    let mut sc = MultiSegScenario::new(
        (0..3u64)
            .map(|s| ClusterConfig::small(4).with_seed(800 + s))
            .collect(),
    );
    sc.bridge(ga(0, 3), ga(1, 0), SimDuration::from_micros(5));
    sc.bridge(ga(1, 3), ga(2, 0), SimDuration::from_micros(6));
    sc.run_for(SimDuration::from_millis(3));
    sc.lookahead(policy);
    sc.send_at(SimDuration::from_micros(50), ga(0, 1), ga(2, 2), b"before");
    // The cut lands while "during" is crossing the network.
    sc.send_at(SimDuration::from_micros(290), ga(2, 1), ga(0, 2), b"during");
    sc.fault_at(SimDuration::from_micros(300), 1, FaultOp::CutFiber(2, 0));
    sc.send_at(SimDuration::from_millis(2), ga(0, 1), ga(2, 2), b"after");
    sc
}

#[test]
fn fiber_cut_chaos_is_mode_invariant_under_both_policies() {
    for policy in POLICIES {
        let sc = chaos_scenario(policy);
        let reference = sc.run(ParallelMode::Serial);
        assert!(
            reference
                .delivered
                .iter()
                .any(|(_, _, p)| p == b"after".as_slice()),
            "traffic flows again after the cut heals around ({policy:?}): {:?}",
            reference.delivered
        );
        for mode in &MODES[1..] {
            let report = sc.run(*mode);
            assert_eq!(
                reference, report,
                "chaos report differs between Serial and {mode:?} under {policy:?}"
            );
        }
    }
}

#[test]
fn repeated_threaded_runs_are_self_identical() {
    // Thread scheduling noise must not leak: two Threads(8) runs of
    // the same scenario agree with each other bit-for-bit.
    let sc = chaos_scenario(Lookahead::Adaptive);
    let a = sc.run(ParallelMode::Threads(8));
    let b = sc.run(ParallelMode::Threads(8));
    assert_eq!(a, b);
}

/// Bursty storm leg: dense cross-segment mesh bursts separated by long
/// quiet gaps, with a fiber cut landing inside the second gap. The
/// gaps let adaptive slices grow to the cap; each burst must snap them
/// back without reordering anything — under every mode, both policies.
fn storm_scenario(policy: Lookahead) -> MultiSegScenario {
    let mut sc = MultiSegScenario::new(
        (0..4u64)
            .map(|s| ClusterConfig::small(4).with_seed(870 + s))
            .collect(),
    );
    for s in 0..4u8 {
        sc.bridge(ga(s, 3), ga((s + 1) % 4, 0), SimDuration::from_micros(5));
    }
    sc.run_for(SimDuration::from_millis(4));
    sc.lookahead(policy);
    // Three bursts: a full mesh each, 1.3 ms of dead air in between.
    for (burst, at_us) in [(0u8, 100u64), (1, 1_400), (2, 2_700)] {
        for s in 0..4u8 {
            for d in 0..4u8 {
                if s != d {
                    sc.send_at(
                        SimDuration::from_micros(at_us),
                        ga(s, 1),
                        ga(d, 2),
                        format!("b{burst}-{s}{d}").as_bytes(),
                    );
                }
            }
        }
    }
    // The cut lands mid-gap, when adaptive slices are fully grown.
    sc.fault_at(SimDuration::from_micros(2_000), 2, FaultOp::CutFiber(1, 0));
    sc
}

#[test]
fn bursty_storm_is_mode_invariant_under_both_policies() {
    for policy in POLICIES {
        let sc = storm_scenario(policy);
        let reference = sc.run(ParallelMode::Serial);
        assert_eq!(
            reference.delivered.len(),
            36,
            "all three 12-datagram bursts land under {policy:?}"
        );
        assert_eq!(reference.unroutable, 0);
        for mode in &MODES[1..] {
            let report = sc.run(*mode);
            assert_eq!(
                reference, report,
                "storm report differs between Serial and {mode:?} under {policy:?}"
            );
        }
    }
}

/// The quiescent-wake pin: a segment that has been idle long enough
/// to advance by bare clock bumps receives a bridge crossing
/// and must resume — delivering at exactly the crossing's maturity, in
/// every mode, with identical digests and identical mode-invariant
/// slice accounting (`worker_wakes` is the one deliberately
/// mode-dependent field and is excluded).
#[test]
fn quiescent_segment_wakes_on_crossing() {
    let mut reference: Option<(u64, u64, u64, u64, u64)> = None;
    for mode in MODES {
        let mut net = MultiSegment::new(
            (0..3u64)
                .map(|s| ClusterConfig::small(4).with_seed(950 + s))
                .collect(),
        );
        net.add_bridge(ga(0, 3), ga(1, 0), SimDuration::from_micros(5));
        net.add_bridge(ga(1, 3), ga(2, 0), SimDuration::from_micros(5));
        net.enable_traces(4096);
        net.set_parallel_mode(mode);
        assert_eq!(net.lookahead(), Lookahead::Adaptive, "adaptive is the default");
        let slice = net.min_bridge_latency().unwrap();

        // A long quiet stretch: slices grow, exchanges elide, idle
        // shards advance by clock bumps.
        let t0 = net.segment(0).now() + SimDuration::from_millis(3);
        net.run_until(t0, slice);

        // Now the crossing: two bridge hops into the idle segment 2.
        net.send_global(ga(0, 1), ga(2, 2), b"wake");
        net.run_until(t0 + SimDuration::from_millis(2), slice);

        let d = net
            .pop_global(ga(2, 2))
            .expect("quiescent segment woken by the crossing");
        assert_eq!(d.payload, b"wake");
        assert_eq!(net.unroutable, 0);

        let stats = net.slice_stats();
        assert!(
            stats.quiescent_shard_slices > 0,
            "idle shards advanced as bare clock bumps ({mode:?})"
        );
        assert!(
            stats.drains_elided > 0,
            "quiet boundaries elided their exchanges ({mode:?})"
        );
        let invariant = (
            net.digest(),
            stats.slices,
            stats.drains_elided,
            stats.deliveries_elided,
            stats.quiescent_shard_slices,
        );
        match &reference {
            None => reference = Some(invariant),
            Some(r) => assert_eq!(
                *r, invariant,
                "digest or slice accounting differs under {mode:?}"
            ),
        }
    }
}

/// Exact-count pin for the quiescence tally: `quiescent_shard_slices`
/// is bumped once per *planned* slice, so a fused window counts its
/// shards once, not once per fused-away sub-boundary. This scripts a
/// schedule whose counts are derivable by hand and pins them exactly,
/// in every mode:
///
/// * Quiet phase under `Fixed`: the fixed policy marches `now + base`
///   regardless of pending events, so a stretch of `K` slice-widths
///   is exactly `K` slices; with every shard drained, each one counts
///   all `SEGS` shards quiescent, elides its barrier and skips its
///   exchange — and never spawns a thread, even under `Threads(8)`.
/// * Busy phase: one intra-segment datagram makes segment 0 busy for
///   a pinned number of boundaries while the other three stay quiet —
///   a single busy chunk, which runs on the caller in every mode.
/// * The same quiet stretch under `Adaptive` is ONE slice (the planner
///   jumps an eventless window straight to the deadline), counting its
///   shards once.
#[test]
fn quiescence_accounting_is_exact() {
    const SEGS: u64 = 4;
    const QUIET: u64 = 8;
    let build = |mode: ParallelMode, policy: Lookahead| {
        let mut net = MultiSegment::new(
            (0..SEGS)
                .map(|s| ClusterConfig::small(4).with_seed(1100 + s))
                .collect(),
        );
        for s in 0..SEGS as u8 {
            net.add_bridge(ga(s, 3), ga((s + 1) % SEGS as u8, 0), SimDuration::from_micros(5));
        }
        net.set_parallel_mode(mode);
        net.set_lookahead(policy);
        net
    };

    let mut invariant: Option<Vec<u64>> = None;
    for mode in MODES {
        let mut net = build(mode, Lookahead::Fixed);
        let slice = net.min_bridge_latency().unwrap();
        // Boot fully settles; `run_until` clamps the last boundary to
        // the deadline, so every shard clock sits exactly at `t0` and
        // the phases below start aligned.
        let t0 = net.segment(0).now() + SimDuration::from_millis(3);
        net.run_until(t0, slice);
        let settled = net.slice_stats();
        assert_eq!(
            settled.worker_wakes == 0,
            mode == ParallelMode::Serial,
            "booting four rings at once spawns threads in every mode but Serial ({mode:?})"
        );

        net.run_until(t0 + slice.saturating_mul(QUIET), slice);
        let quiet = net.slice_stats();
        assert_eq!(quiet.slices - settled.slices, QUIET, "fixed quiet slices ({mode:?})");
        assert_eq!(
            quiet.quiescent_shard_slices - settled.quiescent_shard_slices,
            QUIET * SEGS,
            "every shard counts quiescent exactly once per slice ({mode:?})"
        );
        assert_eq!(
            quiet.barriers_elided - settled.barriers_elided,
            QUIET,
            "all-quiet slices elide their barrier ({mode:?})"
        );
        assert_eq!(
            quiet.exchanges_skipped - settled.exchanges_skipped,
            QUIET,
            "no backlog, no crossings: every exchange skipped ({mode:?})"
        );
        assert_eq!(
            quiet.worker_wakes, settled.worker_wakes,
            "an all-quiet slice spawns no thread ({mode:?})"
        );

        // Busy phase: one local datagram on segment 0. Its delivery
        // chain spans a pinned number of 5 µs boundaries; segments
        // 1..3 never wake.
        net.send_global(ga(0, 0), ga(0, 2), b"busy");
        net.run_until(t0 + slice.saturating_mul(2 * QUIET), slice);
        let busy = net.slice_stats();
        assert!(net.pop_global(ga(0, 2)).is_some(), "local datagram landed ({mode:?})");
        assert_eq!(busy.slices - quiet.slices, QUIET, "fixed busy-phase slices ({mode:?})");
        let busy_shard_slices =
            QUIET * SEGS - (busy.quiescent_shard_slices - quiet.quiescent_shard_slices);
        assert_eq!(
            busy_shard_slices, 1,
            "segment 0 is busy for exactly one boundary ({mode:?})"
        );
        assert_eq!(
            busy.worker_wakes, quiet.worker_wakes,
            "a single busy chunk runs on the caller and never spawns ({mode:?})"
        );

        // The full mode-invariant delta tuple (worker_wakes excluded —
        // it is the one deliberately mode-dependent field).
        let tuple = vec![
            busy.slices - settled.slices,
            busy.quiescent_shard_slices - settled.quiescent_shard_slices,
            busy.barriers_elided - settled.barriers_elided,
            busy.exchanges_skipped - settled.exchanges_skipped,
            busy.drains_elided - settled.drains_elided,
            busy.deliveries_elided - settled.deliveries_elided,
            busy.dirty_bridges - settled.dirty_bridges,
            net.digest(),
        ];
        match &invariant {
            None => invariant = Some(tuple),
            Some(r) => assert_eq!(*r, tuple, "quiescence accounting differs under {mode:?}"),
        }
    }

    // Adaptive over the same quiet stretch: one slice, shards counted
    // once — a fused or deadline-jumped window must not multiply the
    // tally by the boundaries it skipped.
    for mode in MODES {
        let mut net = build(mode, Lookahead::Adaptive);
        let slice = net.min_bridge_latency().unwrap();
        let t0 = net.segment(0).now() + SimDuration::from_millis(3);
        net.run_until(t0, slice);
        let settled = net.slice_stats();
        net.run_until(t0 + slice.saturating_mul(QUIET), slice);
        let quiet = net.slice_stats();
        assert_eq!(
            quiet.slices - settled.slices,
            1,
            "adaptive jumps an eventless stretch in one slice ({mode:?})"
        );
        assert_eq!(
            quiet.quiescent_shard_slices - settled.quiescent_shard_slices,
            SEGS,
            "the jumped window counts each shard once ({mode:?})"
        );
        assert_eq!(quiet.barriers_elided - settled.barriers_elided, 1);
        assert_eq!(quiet.exchanges_skipped - settled.exchanges_skipped, 1);
        assert_eq!(
            quiet.worker_wakes, settled.worker_wakes,
            "the jumped window spawns no thread ({mode:?})"
        );
    }
}

/// Chaos-during-fusion pin: a fiber cut that lands *inside* a fused
/// quiet window. After the early crossings drain, the adaptive planner
/// builds a quiet streak past `FUSE_AFTER` with no crossing in flight,
/// so slices are fused (×`FUSE_FACTOR`) when the scheduled failure
/// fires on segment 1 — the relay segment for every crossing. The
/// roster episode must unwind the fused window deterministically, and
/// the first post-splice crossings (both directions) must re-dirty the
/// bridges and land without loss or reorder — identically under every
/// mode and both policies.
fn fused_region_cut_scenario(policy: Lookahead) -> MultiSegScenario {
    let mut sc = MultiSegScenario::new(
        (0..3u64)
            .map(|s| ClusterConfig::small(4).with_seed(1040 + s))
            .collect(),
    );
    sc.bridge(ga(0, 3), ga(1, 0), SimDuration::from_micros(5));
    sc.bridge(ga(1, 3), ga(2, 0), SimDuration::from_micros(5));
    sc.run_for(SimDuration::from_millis(6));
    sc.lookahead(policy);
    // Early crossings in both directions, then ~2.4 ms of dead air —
    // long enough for the quiet streak to arm fusion many times over.
    sc.send_at(SimDuration::from_micros(40), ga(0, 1), ga(2, 2), b"pre-a");
    sc.send_at(SimDuration::from_micros(60), ga(2, 1), ga(0, 2), b"pre-b");
    sc.fault_at(SimDuration::from_micros(2_500), 1, FaultOp::CutFiber(1, 0));
    // After the splice heals, the first crossings re-dirty both
    // bridges; none may be lost at the fusion boundary.
    sc.send_at(SimDuration::from_millis(4), ga(0, 1), ga(2, 2), b"post-a");
    sc.send_at(SimDuration::from_millis(4), ga(2, 1), ga(0, 2), b"post-b");
    sc
}

#[test]
fn fiber_cut_inside_fused_quiet_region_is_mode_invariant() {
    for policy in POLICIES {
        let sc = fused_region_cut_scenario(policy);
        let reference = sc.run(ParallelMode::Serial);
        for payload in [b"pre-a".as_slice(), b"pre-b", b"post-a", b"post-b"] {
            assert!(
                reference.delivered.iter().any(|(_, _, p)| p == payload),
                "crossing {:?} lost under {policy:?}: {:?}",
                String::from_utf8_lossy(payload),
                reference.delivered
            );
        }
        assert_eq!(reference.unroutable, 0);
        for mode in &MODES[1..] {
            let report = sc.run(*mode);
            assert_eq!(
                reference, report,
                "fused-region cut differs between Serial and {mode:?} under {policy:?}"
            );
        }
    }
}

/// Amortization sanity: on a quiet network the adaptive planner must
/// run dramatically fewer slices (and elide most exchanges) than the
/// fixed policy over the same interval — that is the whole point.
#[test]
fn adaptive_amortizes_quiet_phases() {
    let run = |policy: Lookahead| {
        let mut net = MultiSegment::new(
            (0..2u64)
                .map(|s| ClusterConfig::small(4).with_seed(990 + s))
                .collect(),
        );
        net.add_bridge(ga(0, 3), ga(1, 0), SimDuration::from_micros(5));
        net.set_lookahead(policy);
        let slice = net.min_bridge_latency().unwrap();
        let t0 = net.segment(0).now() + SimDuration::from_millis(5);
        net.run_until(t0, slice);
        net.slice_stats()
    };
    let fixed = run(Lookahead::Fixed);
    let adaptive = run(Lookahead::Adaptive);
    assert!(
        adaptive.slices * 4 <= fixed.slices,
        "adaptive ran {} slices vs fixed {} — growth is not amortizing",
        adaptive.slices,
        fixed.slices
    );
    assert!(
        adaptive.drains_elided > 0,
        "a quiet run must elide exchanges"
    );
}
