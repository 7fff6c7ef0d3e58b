//! Quickstart: boot an AmpNet cluster, move data three ways.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Demonstrates the three fundamental AmpNet operations on a healthy
//! 6-node quad-redundant segment:
//!   1. datagram messaging over the register-insertion ring,
//!   2. network-cache replication (write once, read anywhere),
//!   3. a D64-atomic network semaphore,
//!
//! then snapshots the telemetry registry and flight recorder that
//! watched all of it happen.

use ampnet_core::{
    Cluster, ClusterConfig, RecordLayout, SemStressConfig, SemaphoreAddr, SimDuration,
};

fn main() {
    // 6 nodes, 4 switches, 100 m fiber, deterministic seed.
    let mut cluster = Cluster::new(ClusterConfig::small(6).with_seed(2003));

    // Observability: one registry + a 64-event flight recorder shared
    // by every plane. Registration happens here; recording never
    // allocates. (Skip this call and telemetry costs one branch.)
    cluster.enable_telemetry(64);

    // Boot: the initial roster episode threads the logical ring.
    cluster.run_for(SimDuration::from_millis(5));
    println!("booted at t={}", cluster.now());
    println!(
        "logical ring ({} nodes): {:?}",
        cluster.ring().len(),
        cluster.ring().order
    );

    // 1. Messaging: node 0 sends a datagram to node 4.
    cluster.send_message(0, 4, 0, b"hello from node 0");
    cluster.run_for(SimDuration::from_millis(1));
    let msg = cluster.pop_message(4).expect("delivered");
    println!(
        "node 4 received {:?} from node {}",
        String::from_utf8_lossy(&msg.payload),
        msg.src
    );

    // 2. Network cache: write at node 2, read at every node.
    cluster
        .cache_write(2, 0, 128, b"the network is also a computer")
        .expect("region 0 holds the write");
    cluster.run_for(SimDuration::from_millis(1));
    for node in 0..6u8 {
        let replica = cluster.cache(node).expect("a node of the cluster");
        let bytes = replica.read(0, 128, 30).expect("replicated");
        assert_eq!(&*bytes, b"the network is also a computer");
    }
    println!("cache write replicated to all 6 nodes (verified byte-for-byte)");

    // 3. Seqlock record: slide-9 consistency.
    let layout = RecordLayout {
        region: 0,
        offset: 1024,
        data_len: 16,
    };
    cluster
        .record_write(1, layout, b"consistent-snap!")
        .expect("the record fits region 0");
    cluster.run_for(SimDuration::from_millis(1));
    match cluster
        .record_try_read(5, layout)
        .expect("the record fits region 0")
    {
        ampnet_core::ReadOutcome::Ok { data, generation } => println!(
            "node 5 read generation {generation}: {:?}",
            String::from_utf8_lossy(&data)
        ),
        ampnet_core::ReadOutcome::Busy => unreachable!("quiescent"),
    }

    // 4. Network semaphore: three nodes contend for one lock.
    cluster.start_sem_stress(SemStressConfig {
        addr: SemaphoreAddr {
            home: 0,
            region: 0,
            offset: 2048,
        },
        contenders: vec![1, 2, 3],
        rounds: 5,
        crit: SimDuration::from_micros(25),
        backoff: Default::default(),
    });
    cluster.run_for(SimDuration::from_millis(20));
    let sem = cluster.sem_report().expect("ran");
    println!(
        "semaphore: {} acquisitions, {} violations (must be 0), median acquire {} ns",
        sem.acquisitions,
        sem.violations,
        sem.acquire_latency.p50()
    );
    assert_eq!(sem.violations, 0);
    assert_eq!(cluster.total_drops(), 0);
    println!("zero packets dropped — as slide 8 promises");

    // 5. Observability: everything above was metered. Snapshot the
    // registry (counters/gauges/histograms across all seven planes)
    // and show the tail of the flight recorder's event timeline.
    let snap = cluster.metrics_snapshot();
    println!(
        "\ntelemetry: {} instruments live; \
         mac_inserted={} delivery_frames={} sem_acquisitions={}",
        snap.entries.len(),
        snap.counter_total("mac_inserted"),
        snap.counter_total("delivery_frames"),
        snap.counter_total("services_sem_acquisitions"),
    );
    let dump = cluster.flight_dump();
    for line in dump.lines().take(6) {
        println!("  {line}");
    }
    println!("  ... (see docs/METRICS.md for the full metric catalog)");
}
