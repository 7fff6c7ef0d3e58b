//! Property tests for AmpDK: the failover engine always elects the
//! best-qualified online survivor; version policies partition joiners
//! correctly; a control group's leader follows its online set through
//! any crash/rejoin history.

use ampnet_dk::{
    assimilate, AssimilationFailure, AssimilationParams, CompatPolicy, ControlGroup,
    FailoverEngine, FailoverPolicy, Features, GroupId, JoinRequest, Rejection, Version,
};
use ampnet_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// Any subset of the optional features.
fn arb_features() -> impl Strategy<Value = Features> {
    (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(atomic, crc, routing)| {
        [(atomic, Features::D64_ATOMIC), (crc, Features::CRC_OFFLOAD), (routing, Features::ROUTING)]
            .into_iter()
            .filter(|&(on, _)| on)
            .fold(Features::NONE, |set, (_, f)| set | f)
    })
}

/// A version drawn near the policy's numbers half the time, so every
/// gate is reached, and from the whole range otherwise.
fn arb_version() -> impl Strategy<Value = Version> {
    let near = (0u16..3, 0u16..4, any::<u16>());
    let any_version = (any::<u16>(), any::<u16>(), any::<u16>());
    prop_oneof![near, any_version].prop_map(|(major, minor, patch)| Version::new(major, minor, patch))
}

fn arb_policy() -> impl Strategy<Value = CompatPolicy> {
    (0u16..3, 0u16..4, arb_features()).prop_map(|(required_major, min_minor, required_features)| {
        CompatPolicy {
            required_major,
            min_minor,
            required_features,
        }
    })
}

fn arb_members() -> impl Strategy<Value = Vec<(u8, u32)>> {
    proptest::collection::btree_map(0u8..20, 0u32..1000, 2..8)
        .prop_map(|m| m.into_iter().collect())
}

proptest! {
    /// The leader is always the maximum (qualification, -node) among
    /// online members, under any online/offline mask.
    #[test]
    fn leader_is_always_best(
        members in arb_members(),
        offline_mask in any::<u32>(),
    ) {
        let mut g = ControlGroup::new(GroupId(1));
        for &(node, q) in &members {
            g.join(node, q).unwrap();
        }
        for (i, &(node, _)) in members.iter().enumerate() {
            if offline_mask & (1 << (i % 32)) != 0 {
                g.mark_offline(node);
            }
        }
        let online: Vec<(u8, u32)> = g
            .members()
            .iter()
            .filter(|m| m.online)
            .map(|m| (m.node, m.qualification))
            .collect();
        match g.leader() {
            None => prop_assert!(online.is_empty()),
            Some(l) => {
                for (node, q) in online {
                    prop_assert!(
                        l.qualification > q
                            || (l.qualification == q && l.node <= node),
                        "leader {}q{} beaten by {}q{}", l.node, l.qualification, node, q
                    );
                }
            }
        }
    }

    /// Liveness algebra: after any `mark_offline`/`mark_online`
    /// history the leader is the best-qualified member of the set that
    /// history leaves online (ties to the lower id), and a member that
    /// crashes and rejoins gives the group back the leader it had.
    #[test]
    fn leader_follows_the_online_set(
        // Few distinct qualifications, so ties are the common case.
        members in proptest::collection::btree_map(0u8..20, 0u32..4, 2..8),
        history in proptest::collection::vec((any::<bool>(), 0usize..8), 0..40),
    ) {
        let mut g = ControlGroup::new(GroupId(9));
        for (&node, &q) in &members {
            g.join(node, q).unwrap();
        }
        let nodes: Vec<u8> = members.keys().copied().collect();
        let mut online: BTreeSet<u8> = members.keys().copied().collect();
        for (up, pick) in history {
            let node = nodes[pick % nodes.len()];
            if up {
                g.mark_online(node);
                online.insert(node);
            } else {
                g.mark_offline(node);
                online.remove(&node);
            }
            // Highest qualification, then lowest id.
            let best = online.iter().copied().min_by_key(|n| (Reverse(members[n]), *n));
            prop_assert_eq!(g.leader().map(|m| m.node), best);
            for &bounced in &online {
                g.mark_offline(bounced);
                g.mark_online(bounced);
                prop_assert_eq!(g.leader().map(|m| m.node), best);
            }
        }
    }

    /// The failover engine, driven by arbitrary polling cadence, always
    /// hands control to the best-qualified survivor, never before the
    /// detection window plus the failover period.
    #[test]
    fn failover_respects_policy(
        members in arb_members(),
        step_us in 20u64..500,
        period_ms in 0u64..8,
    ) {
        let mut g = ControlGroup::new(GroupId(1));
        for &(node, q) in &members {
            g.join(node, q).unwrap();
        }
        let leader = g.leader().unwrap();
        prop_assume!(members.len() >= 2);
        let policy = FailoverPolicy {
            failover_period: SimDuration::from_millis(period_ms),
            ..Default::default()
        };
        let mut e = FailoverEngine::new(policy, Some(leader.node), SimTime::ZERO);
        e.leader_died(SimTime::ZERO);
        g.mark_offline(leader.node);

        let expected = g.leader(); // best-qualified survivor
        let mut now = SimTime::ZERO;
        let mut report = None;
        for _ in 0..2_000_000u64 {
            if let Some(r) = e.poll(now, &g) {
                report = Some(r);
                break;
            }
            now += SimDuration::from_micros(step_us);
        }
        match expected {
            None => prop_assert!(report.is_none()),
            Some(best) => {
                let r = report.expect("failover must complete");
                prop_assert_eq!(r.new_leader, best.node);
                prop_assert!(
                    r.takeover_at.saturating_since(SimTime::ZERO)
                        >= policy.detection_latency() + policy.failover_period
                );
                prop_assert!(r.recovered_at >= r.takeover_at);
            }
        }
    }

    /// Version policy is a clean partition: every (version, features)
    /// either admits or rejects with the specific stated reason, and
    /// admission is monotone in minor version.
    #[test]
    fn version_policy_partition(
        req_major in 0u16..5,
        min_minor in 0u16..5,
        major in 0u16..6,
        minor in 0u16..8,
        patch in any::<u16>(),
    ) {
        let policy = CompatPolicy {
            required_major: req_major,
            min_minor,
            required_features: Features::NONE,
        };
        let v = Version::new(major, minor, patch);
        let r = policy.check(v, Features::NONE);
        prop_assert_eq!(r.is_ok(), major == req_major && minor >= min_minor);
        if r.is_ok() {
            // Monotone: any higher minor (same major) also admits.
            let r2 = policy.check(Version::new(major, minor + 1, 0), Features::NONE);
            prop_assert!(r2.is_ok());
        }
    }

    /// Assimilation time is monotone in cache size and independent of
    /// patch level.
    #[test]
    fn assimilation_time_monotone(size_a in 0u64..300_000_000, size_b in 0u64..300_000_000) {
        let policy = CompatPolicy {
            required_major: 1,
            min_minor: 0,
            required_features: Features::NONE,
        };
        let req = |patch| JoinRequest {
            node: 1,
            version: Version::new(1, 0, patch),
            features: Features::NONE,
            diagnostics_pass: true,
        };
        let p = AssimilationParams::default();
        let ta = assimilate(req(0), policy, size_a, &p).unwrap().total();
        let tb = assimilate(req(9), policy, size_b, &p).unwrap().total();
        if size_a <= size_b {
            prop_assert!(ta <= tb);
        } else {
            prop_assert!(ta >= tb);
        }
    }

    /// The total of an admitted join's phases saturates rather than
    /// wrapping: up to a huge cache it is the exact sum, and a cache
    /// whose refresh saturates reads [`SimDuration::MAX`].
    #[test]
    fn assimilation_total_saturates(cache_bytes in any::<u64>()) {
        let policy = CompatPolicy {
            required_major: 1,
            min_minor: 0,
            required_features: Features::NONE,
        };
        let req = JoinRequest {
            node: 1,
            version: Version::new(1, 0, 0),
            features: Features::NONE,
            diagnostics_pass: true,
        };
        let p = AssimilationParams::default();
        for bytes in [cache_bytes, u64::MAX] {
            let t = assimilate(req, policy, bytes, &p).unwrap();
            let exact = [t.boot, t.diagnostics, t.handshake, t.refresh, t.certify]
                .iter()
                .map(|d| u128::from(d.as_nanos()))
                .sum::<u128>();
            prop_assert_eq!(u128::from(t.total().as_nanos()), exact.min(u128::from(u64::MAX)));
        }
        let huge = assimilate(req, policy, u64::MAX, &p).unwrap();
        prop_assert_eq!(huge.total(), SimDuration::MAX);
    }

    /// Hostile joins: any version, feature set, self-test result and
    /// cache size, against any policy. Nothing panics; a join is
    /// admitted iff its self-test passes and the policy admits it;
    /// otherwise the typed failure names the first gate that failed —
    /// diagnostics, then major, minor floor and features in turn.
    #[test]
    fn assimilate_admits_exactly_the_compatible_and_names_the_first_failed_gate(
        node in any::<u8>(),
        version in arb_version(),
        features in arb_features(),
        diagnostics_pass in any::<bool>(),
        cache_bytes in any::<u64>(),
        policy in arb_policy(),
    ) {
        let req = JoinRequest { node, version, features, diagnostics_pass };
        let got = assimilate(req, policy, cache_bytes, &AssimilationParams::default());
        prop_assert_eq!(got.is_ok(), diagnostics_pass && policy.check(version, features).is_ok());
        let first_failed = if !diagnostics_pass {
            Some(AssimilationFailure::DiagnosticsFailed)
        } else if version.major != policy.required_major {
            Some(AssimilationFailure::Incompatible(Rejection::MajorMismatch {
                required: policy.required_major,
                got: version.major,
            }))
        } else if version.minor < policy.min_minor {
            Some(AssimilationFailure::Incompatible(Rejection::TooOld {
                min_minor: policy.min_minor,
                got: version.minor,
            }))
        } else if !features.includes(policy.required_features) {
            Some(AssimilationFailure::Incompatible(Rejection::MissingFeatures {
                required: policy.required_features,
                got: features,
            }))
        } else {
            None
        };
        prop_assert_eq!(got.err(), first_failed);
    }
}
