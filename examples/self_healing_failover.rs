//! The paper's headline demo: a database service that survives the
//! death of its node with zero committed-data loss (slides 13–19).
//!
//! ```text
//! cargo run --example self_healing_failover
//! ```
//!
//! A 8-node quad-redundant cluster runs a replicated counter "database"
//! in a control group (leader qualification 90, standbys 80 and 70).
//! We kill the leader's node mid-run, watch the hardware detect the
//! failure, rostering rebuild the largest possible logical ring in two
//! ring-tour times, and the best-qualified standby resume the service
//! from its local network-cache replica.

use ampnet_core::{
    Cluster, ClusterConfig, Component, CounterAppConfig, FailoverPolicy, NodeId, RecordLayout,
    SimDuration,
};

fn main() {
    let mut cluster = Cluster::new(ClusterConfig::small(8).with_seed(1959));
    cluster.run_for(SimDuration::from_millis(5));
    println!("t={}: ring up with {} nodes", cluster.now(), cluster.ring().len());

    // The "database": a counter record incremented by the group leader
    // every heartbeat, replicated by the network cache.
    let deadline = cluster.now() + SimDuration::from_millis(40);
    cluster
        .start_counter_app(CounterAppConfig {
            members: vec![(1, 90), (2, 70), (3, 80)],
            policy: FailoverPolicy {
                failover_period: SimDuration::from_millis(2), // app-definable
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
        })
        .expect("three members, two words in region 0");

    // Catastrophe: the leader's node loses power 10 ms in.
    let t_kill = cluster.now() + SimDuration::from_millis(10);
    cluster.schedule_failure(t_kill, Component::Node(NodeId(1)));
    println!("t={t_kill}: scheduling power loss of node 1 (the leader)");

    cluster.run_for(SimDuration::from_millis(80));

    // What happened on the network side?
    for ev in cluster.roster_history() {
        println!(
            "roster episode ({:?}): ring {} nodes, recovery {} = {:.2} ring tours",
            ev.reason,
            ev.outcome.ring.len(),
            ev.outcome.recovery_time(),
            ev.outcome.recovery_in_tours(),
        );
    }
    assert!(cluster.ring_up());
    assert_eq!(cluster.ring().len(), 7, "seven survivors re-rostered");

    // What happened on the application side?
    let report = cluster.counter_report().expect("app ran");
    let resume = &report.resumes[0];
    println!(
        "failover: node {} took control (best qualified), detection {}, outage {}",
        resume.new_leader,
        resume.report.detection_latency(),
        resume.report.total_outage(),
    );
    println!(
        "counter: {} increments issued, {} committed, {} committed increments lost",
        report.increments_issued, report.committed, resume.lost_committed
    );
    assert_eq!(resume.new_leader, 3, "qualification 80 beats 70");
    assert_eq!(resume.lost_committed, 0, "slide 19: no loss of data");

    let values: Vec<u64> = report.final_values.iter().map(|&(_, v)| v).collect();
    println!("final replicas agree: {values:?}");
    assert!(values.windows(2).all(|w| w[0] == w[1]));
    println!("no down time beyond the definable failover period, no data loss — as advertised");
}
