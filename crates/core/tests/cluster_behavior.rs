//! Cluster-level behaviour tests: the paper's scenarios end to end.

use ampnet_core::{
    CellTraffic, Cluster, ClusterConfig, Component, CounterAppConfig, FailoverPolicy, Features,
    JoinRequest, NodeId, ReadOutcome, RecordLayout, SemStressConfig, SemaphoreAddr, SeqProbeConfig,
    SimDuration, SimTime, SwitchId, Version,
};
use ampnet_packet::{Body, ControlWord, DmaCtrl, MicroPacket, PacketError, PacketType, BROADCAST};

fn booted(n: usize, seed: u64) -> Cluster {
    let mut c = Cluster::new(ClusterConfig::small(n).with_seed(seed));
    c.run_for(SimDuration::from_millis(10));
    assert!(c.ring_up(), "boot must complete within 10 ms");
    c
}

/// A join request every default policy admits.
fn compatible_join(node: u8) -> JoinRequest {
    JoinRequest {
        node,
        version: Version::new(1, 0, 0),
        features: Features::NONE,
        diagnostics_pass: true,
    }
}

#[test]
fn boot_builds_full_ring() {
    let c = booted(8, 1);
    assert_eq!(c.ring().len(), 8);
    assert_eq!(c.epoch(), 1);
    assert_eq!(c.roster_history().len(), 1);
    assert!(c.caches_converged());
}

#[test]
fn messages_flow_in_both_directions() {
    let mut c = booted(6, 2);
    c.send_message(0, 5, 1, b"forward");
    c.send_message(5, 0, 1, b"backward");
    c.run_for(SimDuration::from_millis(1));
    assert_eq!(c.pop_message(5).unwrap().payload, b"forward");
    assert_eq!(c.pop_message(0).unwrap().payload, b"backward");
    assert_eq!(c.total_drops(), 0);
}

#[test]
fn large_message_fragments_and_reassembles() {
    let mut c = booted(4, 3);
    let big: Vec<u8> = (0..5000u32).map(|i| (i % 241) as u8).collect();
    c.send_message(1, 3, 0, &big);
    c.run_for(SimDuration::from_millis(2));
    assert_eq!(c.pop_message(3).unwrap().payload, big);
}

#[test]
fn broadcast_message_reaches_all() {
    let mut c = booted(5, 4);
    c.send_message(2, ampnet_packet::BROADCAST, 0, b"to everyone");
    c.run_for(SimDuration::from_millis(1));
    for n in [0u8, 1, 3, 4] {
        assert_eq!(c.pop_message(n).unwrap().payload, b"to everyone", "node {n}");
    }
    assert!(c.pop_message(2).is_none(), "no self-delivery");
}

#[test]
fn cache_writes_replicate_everywhere() {
    let mut c = booted(6, 5);
    c.cache_write(3, 0, 512, b"shared management database");
    c.run_for(SimDuration::from_millis(1));
    for n in 0..6u8 {
        assert_eq!(
            &*c.cache(n).read(0, 512, 26).unwrap(),
            b"shared management database",
            "replica at node {n}"
        );
    }
    assert!(c.caches_converged());
}

#[test]
fn node_failure_heals_and_traffic_resumes() {
    let mut c = booted(8, 6);
    let t_fail = c.now() + SimDuration::from_millis(1);
    c.schedule_failure(t_fail, Component::Node(NodeId(4)));
    c.run_for(SimDuration::from_millis(20));
    assert!(c.ring_up());
    assert_eq!(c.ring().len(), 7);
    assert!(!c.ring().order.contains(&NodeId(4)));
    assert_eq!(c.epoch(), 2);
    // The healed ring still carries traffic.
    c.send_message(0, 7, 0, b"after healing");
    c.run_for(SimDuration::from_millis(1));
    assert_eq!(c.pop_message(7).unwrap().payload, b"after healing");
    // Recovery matched the slide-16 bound (2 tours + detection).
    let heal = &c.roster_history()[1];
    assert!(heal.outcome.recovery_in_tours() < 3.5);
}

#[test]
fn switch_failure_reroutes_without_losing_members() {
    let mut c = booted(6, 7);
    c.schedule_failure(
        c.now() + SimDuration::from_millis(1),
        Component::Switch(SwitchId(0)),
    );
    c.run_for(SimDuration::from_millis(20));
    assert!(c.ring_up());
    assert_eq!(c.ring().len(), 6, "quad redundancy keeps everyone");
    assert!(c
        .ring()
        .hops
        .iter()
        .all(|h| !h.via.contains(&SwitchId(0))));
}

#[test]
fn cache_write_racing_failure_still_converges() {
    let mut c = booted(6, 8);
    // Issue a write and kill a node while its packets circulate.
    c.cache_write(0, 0, 0, &vec![0xEE; 600]);
    c.schedule_failure(
        c.now() + SimDuration::from_micros(5),
        Component::Node(NodeId(3)),
    );
    c.run_for(SimDuration::from_millis(30));
    assert!(c.ring_up());
    // Smart data recovery: survivors replayed; all converge.
    for n in [0u8, 1, 2, 4, 5] {
        assert_eq!(
            c.cache(n).read(0, 0, 600).unwrap(),
            &vec![0xEE; 600][..],
            "replica at {n}"
        );
    }
    assert!(c.caches_converged());
    assert_eq!(c.total_drops(), 0);
}

#[test]
fn spare_link_failure_does_not_disturb_the_ring() {
    let mut c = booted(4, 9);
    let epoch_before = c.epoch();
    // All ring hops use switch 0 on a healthy plant; switch 3 is spare.
    c.schedule_failure(
        c.now() + SimDuration::from_micros(10),
        Component::Link(NodeId(1), SwitchId(3)),
    );
    c.run_for(SimDuration::from_millis(5));
    assert!(c.ring_up());
    assert_eq!(c.epoch(), epoch_before, "no roster episode for a spare");
}

#[test]
fn node_rejoin_after_assimilation() {
    let mut c = booted(5, 10);
    c.schedule_failure(c.now() + SimDuration::from_millis(1), Component::Node(NodeId(2)));
    c.run_for(SimDuration::from_millis(10));
    assert_eq!(c.ring().len(), 4);
    // Write state while node 2 is away.
    c.cache_write(0, 0, 100, b"written while away");
    c.run_for(SimDuration::from_millis(1));

    c.schedule_join(c.now(), 2, compatible_join(2));
    // Assimilation takes boot + diag + refresh ≈ 70+ ms.
    c.run_for(SimDuration::from_millis(200));
    assert!(c.ring_up());
    assert_eq!(c.ring().len(), 5, "rejoined the ring");
    assert!(c.node_online(2));
    // The cache refresh brought it current.
    assert_eq!(&*c.cache(2).read(0, 100, 18).unwrap(), b"written while away");
    assert!(c.caches_converged());
}

#[test]
fn incompatible_joiner_rejected() {
    let mut c = booted(4, 11);
    c.schedule_failure(c.now(), Component::Node(NodeId(3)));
    c.run_for(SimDuration::from_millis(5));
    let req = JoinRequest {
        version: Version::new(9, 0, 0), // wrong major
        ..compatible_join(3)
    };
    c.schedule_join(c.now(), 3, req);
    c.run_for(SimDuration::from_millis(200));
    assert!(!c.node_online(3));
    assert_eq!(c.rejections().count(), 1);
    assert_eq!(c.ring().len(), 3);
}

#[test]
fn seqlock_probe_no_torn_reads() {
    let mut c = booted(4, 12);
    let layout = RecordLayout {
        region: 0,
        offset: 1024,
        data_len: 64,
    };
    c.start_seqlock_probe(SeqProbeConfig {
        writer: 0,
        readers: vec![1, 2, 3],
        layout,
        write_interval: SimDuration::from_micros(20),
        read_interval: SimDuration::from_micros(7),
        guarded: true,
        deadline: c.now() + SimDuration::from_millis(5),
    });
    c.run_for(SimDuration::from_millis(6));
    let r = c.seq_report().unwrap();
    assert!(r.writes > 100);
    assert!(r.reads_ok > 500);
    assert_eq!(r.torn, 0, "guarded reads must never tear");
}

#[test]
fn unguarded_reads_tear_under_write_load() {
    let mut c = booted(4, 13);
    let layout = RecordLayout {
        region: 0,
        offset: 1024,
        data_len: 512, // spans many cells: wide window for tearing
    };
    c.start_seqlock_probe(SeqProbeConfig {
        writer: 0,
        readers: vec![1, 2, 3],
        layout,
        write_interval: SimDuration::from_micros(15),
        read_interval: SimDuration::from_micros(3),
        guarded: false,
        deadline: c.now() + SimDuration::from_millis(10),
    });
    c.run_for(SimDuration::from_millis(12));
    let r = c.seq_report().unwrap();
    assert!(
        r.torn > 0,
        "ablation A2 must expose torn reads ({} reads)",
        r.reads_ok
    );
}

#[test]
fn semaphores_mutually_exclude() {
    let mut c = booted(6, 14);
    c.start_sem_stress(SemStressConfig {
        addr: SemaphoreAddr {
            home: 0,
            region: 0,
            offset: 2048,
        },
        contenders: vec![1, 2, 3, 4, 5],
        rounds: 10,
        crit: SimDuration::from_micros(30),
        backoff: Default::default(),
    });
    c.run_for(SimDuration::from_millis(50));
    let r = c.sem_report().unwrap();
    assert_eq!(r.violations, 0, "mutual exclusion must hold");
    assert_eq!(r.acquisitions, 50, "5 contenders × 10 rounds");
    assert_eq!(r.unfinished, 0);
    assert!(r.contentions > 0, "they really contended");
    assert!(r.acquire_latency.count() == 50);
}

/// A contender on the semaphore's home node addresses its D64 requests
/// to itself. Such a unicast tours the ring and must be delivered back
/// home: stripped at its source unread, it never reached the home and
/// the contender retransmitted every 500 µs without end.
#[test]
fn self_homed_contender_completes_every_round() {
    let mut c = booted(6, 0xC7);
    c.start_sem_stress(SemStressConfig {
        addr: SemaphoreAddr {
            home: 1,
            region: 0,
            offset: 2048,
        },
        contenders: vec![1, 2, 3, 4],
        rounds: 8,
        crit: SimDuration::from_micros(30),
        backoff: Default::default(),
    });
    c.run_for(SimDuration::from_millis(200));
    let r = c.sem_report().unwrap();
    assert_eq!(r.violations, 0, "mutual exclusion must hold");
    assert_eq!(r.unfinished, 0, "the home node's own rounds finish too");
    assert_eq!(r.acquisitions, 32, "4 contenders × 8 rounds");
}

/// Three-member control group (node 1 best qualified, then 3, then 2)
/// with a 1 ms failover period, incrementing until `deadline`.
fn counter_app(deadline: SimTime) -> CounterAppConfig {
    CounterAppConfig {
        members: vec![(1, 90), (2, 70), (3, 80)],
        policy: FailoverPolicy {
            failover_period: SimDuration::from_millis(1),
            ..Default::default()
        },
        counter_layout: RecordLayout {
            region: 0,
            offset: 4096,
            data_len: 8,
        },
        heartbeat_layout: RecordLayout {
            region: 0,
            offset: 4160,
            data_len: 8,
        },
        deadline,
    }
}

#[test]
fn counter_app_failover_no_data_loss() {
    let mut c = booted(6, 15);
    c.start_counter_app(counter_app(c.now() + SimDuration::from_millis(30)));
    // Kill the initial leader (node 1, qualification 90) mid-run.
    c.schedule_failure(
        c.now() + SimDuration::from_millis(8),
        Component::Node(NodeId(1)),
    );
    c.run_for(SimDuration::from_millis(40));
    let r = c.counter_report().unwrap();
    assert_eq!(r.resumes.len(), 1, "exactly one failover");
    let resume = &r.resumes[0];
    assert_eq!(resume.new_leader, 3, "best qualified survivor (80 > 70)");
    assert_eq!(resume.lost_committed, 0, "no committed data lost");
    assert!(r.increments_issued > 20);
    assert!(r.committed > 0);
    // Detection was millisecond-scale.
    let detect = resume.report.detection_latency();
    assert!(
        detect <= SimDuration::from_millis(3),
        "detection took {detect}"
    );
    // Survivors agree on the final value.
    let vals: Vec<u64> = r.final_values.iter().map(|&(_, v)| v).collect();
    assert!(vals.windows(2).all(|w| w[0] == w[1]), "{vals:?}");
}

#[test]
fn rejoined_member_regains_control() {
    // Slide 19: control passes to the best-qualified computer — which
    // includes one that crashed and re-assimilated. Every member dies
    // once; the two that rejoin must be eligible again.
    let mut c = booted(6, 15);
    let t0 = c.now();
    let at = |ms| t0 + SimDuration::from_millis(ms);
    c.start_counter_app(counter_app(at(420)));
    c.schedule_failure(at(8), Component::Node(NodeId(1)));
    c.schedule_join(at(20), 1, compatible_join(1)); // online ≈ +91 ms
    c.schedule_failure(at(150), Component::Node(NodeId(3)));
    c.schedule_join(at(160), 3, compatible_join(3));
    c.schedule_failure(at(300), Component::Node(NodeId(2)));
    c.run_until(at(400));
    let before = c.counter_report().unwrap().increments_issued;
    c.run_until(at(420));
    let r = c.counter_report().unwrap();
    let leaders: Vec<u8> = r.resumes.iter().map(|x| x.new_leader).collect();
    assert_eq!(
        leaders,
        [3, 1],
        "1 dies: 3 (80) takes over; 3 dies: rejoined 1 (90) beats 2 (70); 2 dies a non-leader"
    );
    assert!(r.resumes.iter().all(|x| x.lost_committed == 0));
    assert!(
        r.increments_issued > before,
        "the service is still incrementing after every member has died once"
    );
}

#[test]
fn determinism_across_runs() {
    let run = |seed| {
        let mut c = booted(6, seed);
        c.send_message(0, 3, 0, b"det");
        c.schedule_failure(c.now() + SimDuration::from_millis(1), Component::Node(NodeId(5)));
        c.run_for(SimDuration::from_millis(20));
        (
            c.epoch(),
            c.ring().order.clone(),
            c.now().as_nanos(),
            c.total_drops(),
        )
    };
    assert_eq!(run(77), run(77));
}

#[test]
fn double_failure_still_heals() {
    let mut c = booted(8, 16);
    c.schedule_failure(c.now() + SimDuration::from_millis(1), Component::Node(NodeId(2)));
    c.schedule_failure(
        c.now() + SimDuration::from_millis(1) + SimDuration::from_micros(100),
        Component::Node(NodeId(6)),
    );
    c.run_for(SimDuration::from_millis(30));
    assert!(c.ring_up());
    assert_eq!(c.ring().len(), 6);
    c.send_message(0, 7, 0, b"still alive");
    c.run_for(SimDuration::from_millis(1));
    assert_eq!(c.pop_message(7).unwrap().payload, b"still alive");
}

#[test]
fn seqlock_read_api_works_quiescent() {
    let mut c = booted(3, 17);
    let layout = RecordLayout {
        region: 0,
        offset: 256,
        data_len: 16,
    };
    let mut data = vec![7u8; 16];
    data[0] = 1;
    c.record_write(0, layout, &data);
    c.run_for(SimDuration::from_millis(1));
    match c.record_try_read(2, layout) {
        ReadOutcome::Ok { data: d, generation } => {
            assert_eq!(d, data);
            assert_eq!(generation, 1);
        }
        ReadOutcome::Busy => panic!("quiescent record must read cleanly"),
    }
}

#[test]
fn boot_timing_is_charged() {
    let c = Cluster::new(ClusterConfig::small(16).with_seed(18));
    assert!(!c.ring_up(), "ring is down until the boot roster finishes");
    let mut c = c;
    c.run_for(SimDuration::from_micros(100));
    assert!(!c.ring_up(), "16-node boot takes ~1 ms, not 100 µs");
    c.run_for(SimDuration::from_millis(5));
    assert!(c.ring_up());
    assert_eq!(SimTime::ZERO + (c.roster_history()[0].outcome.completed_at - SimTime::ZERO),
               c.roster_history()[0].outcome.completed_at);
}

#[test]
fn certification_sweep_after_boot_and_heal() {
    let mut c = booted(6, 20);
    c.run_for(SimDuration::from_millis(2));
    let certs: Vec<_> = c.certifications().collect();
    assert_eq!(certs.len(), 1, "boot epoch certified");
    assert!(certs[0].passed());
    assert_eq!(certs[0].epoch, 1);

    c.schedule_failure(c.now(), Component::Node(NodeId(2)));
    c.run_for(SimDuration::from_millis(20));
    let certs: Vec<_> = c.certifications().collect();
    assert_eq!(certs.len(), 2, "heal epoch certified too");
    let cert = certs[1];
    assert_eq!(cert.epoch, 2);
    assert!(cert.echo_completed, "echo toured the healed ring");
    assert!(cert.crc_uniform, "survivor replicas agree");
    assert!(cert.passed());
}

#[test]
fn certification_echo_costs_one_tour() {
    let mut c = booted(8, 21);
    c.run_for(SimDuration::from_millis(2));
    let cert = c.certifications().next().unwrap();
    let restored = c.roster_history()[0].outcome.completed_at;
    let sweep = cert.at - restored;
    // The echo tour at hardware speed: 8 hops of ~(0.19us ser + 0.5us
    // prop + 60ns) — well under 100 us.
    assert!(
        sweep < SimDuration::from_micros(100),
        "echo sweep took {sweep}"
    );
}

#[test]
fn collectives_over_the_ring() {
    use ampnet_core::ReduceOp;
    let mut c = booted(5, 22);
    c.enable_collectives();

    // Barrier: stagger the entries; nobody completes early.
    for n in 0..4u8 {
        c.coll_barrier(n, 1);
    }
    c.run_for(SimDuration::from_millis(1));
    assert!(!c.coll_barrier_done(0, 1), "rank 4 not yet in");
    c.coll_barrier(4, 1);
    c.run_for(SimDuration::from_millis(1));
    for n in 0..5u8 {
        assert!(c.coll_barrier_done(n, 1), "rank {n}");
    }

    // All-reduce.
    for n in 0..5u8 {
        c.coll_allreduce(n, 2, (n as u64 + 1) * 10);
    }
    c.run_for(SimDuration::from_millis(1));
    for n in 0..5u8 {
        assert_eq!(c.coll_reduce_result(n, 2, ReduceOp::Sum), Some(150));
        assert_eq!(c.coll_reduce_result(n, 2, ReduceOp::Max), Some(50));
    }

    // Broadcast + gather.
    c.coll_bcast(2, 3, 0xABCD);
    for n in 0..5u8 {
        c.coll_gather(n, 4, 0, n as u64 * n as u64);
    }
    c.run_for(SimDuration::from_millis(1));
    for n in 0..5u8 {
        assert_eq!(c.coll_bcast_result(n, 3), Some(0xABCD));
    }
    assert_eq!(c.coll_gather_result(0, 4), Some(vec![0, 1, 4, 9, 16]));
    assert_eq!(c.total_drops(), 0);
}

#[test]
fn collectives_survive_a_roster_episode() {
    use ampnet_core::ReduceOp;
    let mut c = booted(6, 23);
    c.enable_collectives();
    // Contribute from half the ranks, break the ring, then the rest.
    for n in 0..3u8 {
        c.coll_allreduce(n, 9, 100 + n as u64);
    }
    c.schedule_failure(c.now() + SimDuration::from_micros(20), Component::Node(NodeId(5)));
    c.run_for(SimDuration::from_millis(10));
    for n in [3u8, 4] {
        c.coll_allreduce(n, 9, 100 + n as u64);
    }
    // Rank 5 is dead; the survivors' reduce over 6 ranks can never
    // complete — applications detect this via the roster change and
    // re-issue over the surviving group (new tag).
    c.run_for(SimDuration::from_millis(5));
    assert_eq!(c.coll_reduce_result(0, 9, ReduceOp::Sum), None);
    // Regroup: 5 survivors, fresh tag.
    for n in 0..5u8 {
        c.coll_allreduce(n, 10, n as u64);
    }
    c.run_for(SimDuration::from_millis(5));
    // Note: ranks were sized at 6; survivors see 5/6 contributions on
    // tag 10 plus nothing from rank 5 — still incomplete by design.
    // The application-level answer is to re-rank after a roster
    // change; verify the messaging itself stayed lossless instead.
    assert_eq!(c.total_drops(), 0);
}

#[test]
fn trace_records_milestones() {
    let mut c = Cluster::new(ClusterConfig::small(5).with_seed(60));
    c.enable_trace(64);
    c.run_for(SimDuration::from_millis(5));
    c.schedule_failure(c.now(), Component::Node(NodeId(2)));
    c.run_for(SimDuration::from_millis(20));
    let dump = c.trace().dump();
    assert!(
        dump.lines().any(|e| e.contains("roster") && e.contains("epoch 2")),
        "roster milestone missing: {dump}"
    );
    assert!(
        dump.lines().any(|e| e.contains("certified")),
        "certification milestone missing: {dump}"
    );
    // Disabled by default: a fresh cluster records nothing.
    let mut quiet = Cluster::new(ClusterConfig::small(3).with_seed(61));
    quiet.run_for(SimDuration::from_millis(5));
    assert!(quiet.trace().dump().is_empty());
}

#[test]
fn ampip_sockets_over_the_ring() {
    use ampnet_core::SockAddr;
    let mut c = booted(4, 62);
    c.sock_bind(0, 5000).unwrap();
    c.sock_bind(3, 80).unwrap();
    c.sock_send(0, 5000, SockAddr { node: 3, port: 80 }, b"GET /status")
        .unwrap();
    c.run_for(SimDuration::from_millis(1));
    let req = c.sock_recv(3, 80).expect("request arrived");
    assert_eq!(req.data, b"GET /status");
    assert_eq!(req.from, SockAddr { node: 0, port: 5000 });
    // Reply through the ring.
    c.sock_send(3, 80, req.from, b"200 OK").unwrap();
    c.run_for(SimDuration::from_millis(1));
    assert_eq!(c.sock_recv(0, 5000).unwrap().data, b"200 OK");
    // Unbound destination is UDP-dropped, not fatal.
    c.sock_send(0, 5000, SockAddr { node: 2, port: 9 }, b"void")
        .unwrap();
    c.run_for(SimDuration::from_millis(1));
    assert!(c.sock_recv(2, 9).is_none());
    assert_eq!(c.total_drops(), 0, "MAC still never drops");
}

#[test]
fn ampthreads_remote_execution_end_to_end() {
    use ampnet_core::TaskKind;
    let mut c = Cluster::new(
        ClusterConfig::small(5)
            .with_seed(63)
            .with_regions(vec![(0, 64 * 1024), (3, 16 * 16)]),
    );
    c.run_for(SimDuration::from_millis(5));
    c.enable_threads(3, 16);

    // Node 0 farms squares out to nodes 1..4.
    for (slot, target) in [(0u32, 1u8), (1, 2), (2, 3), (3, 4)] {
        c.spawn_remote(0, slot, TaskKind::Square, target, slot + 10);
    }
    c.run_for(SimDuration::from_millis(2));
    // Doorbell interrupts executed automatically; completions landed;
    // the submitter collects.
    for slot in 0..4u32 {
        let result = c.collect_remote(0, slot).expect("task finished");
        assert_eq!(result, (slot + 10) * (slot + 10));
    }
    c.run_for(SimDuration::from_millis(1));
    assert!(c.caches_converged(), "task table converged after frees");
    assert_eq!(c.total_drops(), 0);
}

#[test]
fn ampthreads_result_survives_submitter_death() {
    use ampnet_core::TaskKind;
    let mut c = Cluster::new(
        ClusterConfig::small(5)
            .with_seed(64)
            .with_regions(vec![(0, 1024), (3, 16 * 16)]),
    );
    c.run_for(SimDuration::from_millis(5));
    c.enable_threads(3, 16);
    c.spawn_remote(0, 7, TaskKind::PopCount, 2, 0xFFFF_0001);
    c.run_for(SimDuration::from_millis(2));
    // Submitter dies after the worker finished.
    c.schedule_failure(c.now(), Component::Node(NodeId(0)));
    c.run_for(SimDuration::from_millis(20));
    // Any survivor can collect from its replica.
    let result = c.collect_remote(4, 7).expect("replicated result");
    assert_eq!(result, 17);
}

#[test]
fn repair_reabsorbs_isolated_node() {
    let mut c = booted(4, 65);
    // Cut EVERY fiber of node 2: it is isolated (still alive).
    for s in 0..4u8 {
        c.schedule_failure(
            c.now() + SimDuration::from_micros(s as u64 + 1),
            Component::Link(NodeId(2), SwitchId(s)),
        );
    }
    c.run_for(SimDuration::from_millis(20));
    assert_eq!(c.ring().len(), 3, "node 2 isolated");
    assert!(c.node_online(2), "alive but unreachable");

    // Splice one fiber back: the ring grows to 4 again.
    c.schedule_repair(c.now(), Component::Link(NodeId(2), SwitchId(1)));
    c.run_for(SimDuration::from_millis(10));
    assert_eq!(c.ring().len(), 4, "repair re-absorbed the node");
    assert!(matches!(
        c.roster_history().last().unwrap().reason,
        ampnet_core::RosterReason::Repair(_)
    ));
    // Traffic reaches the reconnected node.
    c.send_message(0, 2, 0, b"welcome back");
    c.run_for(SimDuration::from_millis(1));
    assert_eq!(c.pop_message(2).unwrap().payload, b"welcome back");
}

#[test]
fn spare_repair_is_silent() {
    let mut c = booted(4, 66);
    let epoch = c.epoch();
    c.schedule_failure(c.now(), Component::Link(NodeId(1), SwitchId(3)));
    c.run_for(SimDuration::from_millis(2));
    c.schedule_repair(c.now(), Component::Link(NodeId(1), SwitchId(3)));
    c.run_for(SimDuration::from_millis(5));
    assert_eq!(c.epoch(), epoch, "spare out, spare back: no episodes");
    assert!(c.ring_up());
}

#[test]
fn background_sweep_finds_spare_faults() {
    let mut c = booted(4, 67);
    c.enable_trace(32);
    c.enable_background_sweep(SimDuration::from_millis(1));
    let epoch = c.epoch();
    // A spare fiber dies silently (no light on the ring dims).
    let spare = Component::Link(NodeId(1), SwitchId(2));
    c.schedule_failure(c.now(), spare);
    c.run_for(SimDuration::from_millis(5));
    assert_eq!(c.epoch(), epoch, "no emergency rostering for a spare");
    let found = |c: &Cluster| c.spare_faults().map(|(_, f)| f).collect::<Vec<_>>();
    assert_eq!(found(&c), [spare], "but the sweep caught it");
    // No duplicates on later sweeps.
    c.run_for(SimDuration::from_millis(5));
    assert_eq!(found(&c), [spare]);
    // Spliced, then cut again: the second failure is a new fault.
    c.schedule_repair(c.now(), spare);
    c.run_for(SimDuration::from_millis(5));
    c.schedule_failure(c.now(), spare);
    c.run_for(SimDuration::from_millis(5));
    assert_eq!(found(&c), [spare, spare], "the re-failed spare was missed");
}

#[test]
fn cascading_failovers_still_lossless() {
    let mut c = booted(6, 68);
    let deadline = c.now() + SimDuration::from_millis(60);
    c.start_counter_app(CounterAppConfig {
        members: vec![(1, 90), (2, 70), (3, 80)],
        policy: FailoverPolicy {
            failover_period: SimDuration::from_millis(1),
            ..Default::default()
        },
        counter_layout: RecordLayout {
            region: 0,
            offset: 4096,
            data_len: 8,
        },
        heartbeat_layout: RecordLayout {
            region: 0,
            offset: 4160,
            data_len: 8,
        },
        deadline,
    });
    // Kill the leader... and then its successor.
    c.schedule_failure(c.now() + SimDuration::from_millis(10), Component::Node(NodeId(1)));
    c.schedule_failure(c.now() + SimDuration::from_millis(30), Component::Node(NodeId(3)));
    c.run_for(SimDuration::from_millis(100));
    let r = c.counter_report().unwrap();
    assert_eq!(r.resumes.len(), 2, "two failovers");
    assert_eq!(r.resumes[0].new_leader, 3, "80 beats 70 first");
    assert_eq!(r.resumes[1].new_leader, 2, "last survivor takes over");
    assert_eq!(r.resumes[0].lost_committed, 0);
    assert_eq!(r.resumes[1].lost_committed, 0, "no loss across cascades");
    assert!(r.committed > 0);
    // The lone survivor still carries the full committed state.
    let v = c.cache(2).read_u64(0, 4096 + 8).unwrap();
    assert!(v >= r.committed);
}

#[test]
fn custom_interrupts_reach_the_inbox() {
    use ampnet_core::InterruptPayload;
    let mut c = booted(3, 69);
    let ip = InterruptPayload {
        vector: 0x0099,
        cookie: 7,
        arg: 0xABCD_0123,
    };
    c.send_interrupt(0, 2, ip);
    c.run_for(SimDuration::from_millis(1));
    assert_eq!(c.pop_interrupt(2), Some(ip));
    assert!(c.pop_interrupt(2).is_none());
    assert!(c.pop_interrupt(1).is_none(), "interrupts are unicast");
}

#[test]
fn in_flight_unicast_at_failure_is_replayed() {
    // Regression: a unicast whose fragments are on the wire when the
    // ring breaks must be replayed after healing, even though the
    // outage lasts far longer than the normal delivery window.
    let mut c = booted(6, 70);
    c.send_message(0, 4, 0, b"mid-flight datagram");
    // Break the ring 2 µs later — fragments are still in flight
    // (a tour takes ~6 µs).
    c.schedule_failure(
        c.now() + SimDuration::from_micros(2),
        Component::Node(NodeId(2)),
    );
    c.run_for(SimDuration::from_millis(20));
    assert!(c.ring_up());
    assert_eq!(
        c.pop_message(4).map(|d| d.payload),
        Some(b"mid-flight datagram".to_vec()),
        "in-flight unicast must survive the outage via replay"
    );
}

#[test]
fn a_region_listed_twice_keeps_its_last_size() {
    let cfg = ClusterConfig::small(4).with_regions(vec![(1, 128), (1, 64)]);
    let c = Cluster::new(cfg);
    for node in 0..4 {
        assert_eq!(c.cache(node).region_ids(), vec![1]);
        assert_eq!(c.cache(node).region_size(1), Ok(64));
    }
}

/// The malformed cells `send_cell` must refuse, each with its error: a
/// Data cell carrying a DMA body, a DMA cell carrying a fixed body, and
/// a DMA cell one byte longer than slide 6 allows.
fn malformed_cells() -> [(MicroPacket, PacketError); 3] {
    let update = CellTraffic::cache_update(0, 0);
    let Body::Variable { ctrl: dma, data } = update.body.clone() else {
        unreachable!("a cache update is a DMA cell")
    };
    [
        (
            MicroPacket {
                ctrl: ControlWord::new(PacketType::Data, 0, BROADCAST, 0),
                body: update.body.clone(),
            },
            PacketError::ClassMismatch,
        ),
        (
            MicroPacket {
                ctrl: update.ctrl,
                body: Body::Fixed([9; 8]),
            },
            PacketError::ClassMismatch,
        ),
        (
            MicroPacket {
                ctrl: update.ctrl,
                body: Body::Variable {
                    ctrl: DmaCtrl { len: 65, ..dma },
                    data,
                },
            },
            PacketError::BadDmaLen(65),
        ),
    ]
}

/// A booted 4-node cluster taking a 16-byte cache write from one node
/// after another, one a microsecond for 1 ms, with `bad` offered to
/// node 0's `send_cell` after each write, then 1 ms without traffic:
/// the arena's resident bytes and live frames, and whether the
/// replicas converged.
fn cache_traffic_with(bad: Option<&(MicroPacket, PacketError)>) -> (usize, usize, bool) {
    let mut c = booted(4, 9);
    for us in 0..1000u32 {
        let node = (us % 4) as u8;
        c.cache_write(node, 0, 16 * (us % 64), &[us as u8; 16]);
        if let Some((cell, err)) = bad {
            assert_eq!(c.send_cell(0, cell.clone()), Err(*err));
        }
        c.run_for(SimDuration::from_micros(1));
    }
    c.run_for(SimDuration::from_millis(1));
    let arena = c.arena();
    (arena.resident_bytes(), arena.live(), c.caches_converged())
}

#[test]
fn send_cell_refuses_a_malformed_cell_and_stores_nothing() {
    let clean = cache_traffic_with(None);
    assert_eq!((clean.1, clean.2), (0, true), "quiet and converged");
    for bad in &malformed_cells() {
        assert_eq!(cache_traffic_with(Some(bad)), clean, "{:?}", bad.1);
    }
}
