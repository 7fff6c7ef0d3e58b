//! The `figures --metrics` exercise: one deterministic run that drives
//! every instrumented plane of the stack — PHY bursts, MAC
//! insert/forward/strip, host delivery, cache DMA + seqlock + atomics,
//! messaging, semaphores, rostering, assimilation, smart data
//! recovery and the workload engine's load plane — into a single
//! shared telemetry registry, then snapshots it.
//!
//! Every leg records into one shared [`Telemetry`] handle (the
//! cluster leg's ring meters give the tour/access latency histograms),
//! so the exported snapshot covers the whole metric catalog in
//! `ampnet_telemetry::defs::ALL`. Everything is driven by the
//! simulated clock: same seed ⇒ byte-identical snapshot JSON.

use ampnet_core::{
    BackoffPolicy, Cluster, ClusterConfig, Component, Features, GlobalAddr, JoinRequest,
    MultiSegment, NodeId, RecordLayout, SemStressConfig, SemaphoreAddr, SeqProbeConfig,
    SimDuration, SwitchId, Version,
};
use ampnet_load::{ArrivalProcess, LoadReport, LoadSpec};
use ampnet_telemetry::{MetricsSnapshot, Telemetry};

/// Flight-recorder depth for the exercise (large enough that the
/// timeline of the final fault reaction survives intact).
pub const FLIGHT_CAPACITY: usize = 2048;

/// A completed telemetry exercise: the cluster that ran it, recording
/// into the shared [`Telemetry`].
pub struct TelemetryExercise {
    /// The cluster after the fault/traffic schedule completed.
    pub cluster: Cluster,
    /// The workload-engine leg's report (load-plane metrics source).
    pub load: LoadReport,
    /// The shared registry + flight recorder.
    pub tel: Telemetry,
}

impl TelemetryExercise {
    /// Snapshot the shared registry with every gauge freshly
    /// published. Byte-identical for identical seeds.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.cluster.metrics_snapshot()
    }
}

/// Run the full-stack exercise under `seed`.
pub fn telemetry_exercise(seed: u64) -> TelemetryExercise {
    let tel = Telemetry::new(FLIGHT_CAPACITY);

    // ----- cluster leg: ring, control plane, cache, services -----
    let mut cluster = Cluster::new(ClusterConfig::small(5).with_seed(seed));
    cluster.enable_telemetry_with(&tel);
    cluster.run_for(SimDuration::from_millis(5)); // boot

    // Stateful apps: seqlock probe (writer + 2 readers) and semaphore
    // contention between three nodes.
    let deadline = cluster.now() + SimDuration::from_millis(30);
    cluster.start_seqlock_probe(SeqProbeConfig {
        writer: 0,
        readers: vec![1, 3],
        layout: RecordLayout { region: 0, offset: 1024, data_len: 32 },
        write_interval: SimDuration::from_micros(20),
        read_interval: SimDuration::from_micros(7),
        guarded: true,
        deadline,
    });
    cluster.start_sem_stress(SemStressConfig {
        addr: SemaphoreAddr { home: 0, region: 0, offset: 2048 },
        contenders: vec![1, 2, 3],
        rounds: 3,
        crit: SimDuration::from_micros(30),
        backoff: BackoffPolicy::default(),
    });

    // Fault schedule: an absorbed burst, a spare-link fault (ring hops
    // all ride switch 0, so switch 1 is spare), an escalated burst, a
    // node crash, a rejected join, and a successful rejoin.
    //
    // The crash lands one nanosecond after the first traffic burst,
    // while every node's first frame — broadcasts on even nodes,
    // unicasts on odd ones — is mid-flight on the fiber: that is what
    // exercises stale-frame release and smart-data-recovery replay.
    let t0 = cluster.now();
    cluster.schedule_failure(t0 + SimDuration::from_nanos(1), Component::Node(NodeId(4)));
    cluster.schedule_error_burst(t0 + SimDuration::from_millis(2), 2, 0xD1CE, 0);
    cluster.schedule_failure(
        t0 + SimDuration::from_millis(4),
        Component::Link(NodeId(1), SwitchId(1)),
    );
    cluster.schedule_error_burst(t0 + SimDuration::from_millis(6), 3, 0xD1CE, 60);
    cluster.schedule_join(
        t0 + SimDuration::from_millis(16),
        4,
        JoinRequest {
            node: 4,
            version: Version::new(1, 0, 0),
            features: Features::NONE,
            diagnostics_pass: false, // rejected by the DK
        },
    );
    cluster.schedule_join(
        t0 + SimDuration::from_millis(18),
        4,
        JoinRequest {
            node: 4,
            version: Version::new(1, 0, 0),
            features: Features::NONE,
            diagnostics_pass: true,
        },
    );

    // Drive stateless traffic through the schedule: all-to-all
    // messages and direct cache writes every millisecond. The queueing
    // order in step 0 decides which frame each node has in flight when
    // the crash hits.
    for step in 0u64..30 {
        let n = cluster.n_nodes() as u8;
        for src in 0..n {
            if !cluster.node_online(src) {
                continue;
            }
            if src % 2 == 0 {
                cluster.cache_write(src, 0, 8192 + src as u32 * 64, &[step as u8; 16]);
            }
            for dst in 0..n {
                if dst != src && cluster.node_online(dst) {
                    cluster.send_message(src, dst, 1, &[step as u8; 24]);
                }
            }
            if src % 2 == 1 {
                cluster.cache_write(src, 0, 8192 + src as u32 * 64, &[step as u8; 16]);
            }
        }
        cluster.run_for(SimDuration::from_millis(1));
    }
    cluster.run_for(SimDuration::from_millis(10)); // settle

    // ----- multi-segment leg: PDES engine counters -----
    // A small bridged network: the coordinator registers its slice /
    // elision / quiescence counters on the shared registry, and one
    // cross-segment datagram plus a long idle tail makes all three
    // move (traffic forces exchanges, the idle tail elides them).
    let mut net = MultiSegment::new(vec![
        ClusterConfig::small(3).with_seed(seed ^ 0x9d2e),
        ClusterConfig::small(3).with_seed(seed ^ 0x51c3),
    ]);
    net.enable_coordinator_telemetry_with(&tel);
    net.add_bridge(
        GlobalAddr { segment: 0, node: 2 },
        GlobalAddr { segment: 1, node: 0 },
        SimDuration::from_micros(3),
    );
    net.run_for(SimDuration::from_millis(5)); // boot both rings
    net.send_global(
        GlobalAddr { segment: 0, node: 1 },
        GlobalAddr { segment: 1, node: 2 },
        b"pdes exercise",
    );
    net.run_for(SimDuration::from_millis(5));

    // ----- workload-engine leg: load-plane instruments -----
    // A small healthy sweep cell on its own cluster, recording into the
    // shared registry: this is what registers (and bumps) every
    // `defs::LOAD_*` def, so the catalog coverage check proves the
    // load plane is live alongside every other plane.
    let mut load_spec = LoadSpec::standard(8_000, ArrivalProcess::Poisson);
    load_spec.ticks = 20;
    let load = ampnet_load::run_with(
        ampnet_core::ClusterConfig::small(6).with_seed(seed ^ 0x10AD),
        &load_spec,
        &tel,
    );

    TelemetryExercise { cluster, load, tel }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exercise_produces_nonzero_planes() {
        let ex = telemetry_exercise(7);
        let snap = ex.snapshot();
        for name in [
            "phy_tx_frames",
            "mac_inserted",
            "mac_stripped",
            "delivery_frames",
            "cache_updates_applied",
            "cache_seqlock_writes",
            "cache_atomics_executed",
            "services_msgs_sent",
            "services_msgs_assembled",
            "services_sem_acquisitions",
            "membership_roster_episodes",
            "membership_bursts_escalated",
            "membership_bursts_absorbed",
            "membership_spare_faults",
            "membership_joins_rejected",
            "transport_stale_frames_released",
            "transport_replayed_broadcasts",
            "transport_replayed_unicasts",
            "pdes_slices",
            "pdes_exchanges_elided",
            "pdes_quiescent_shard_slices",
            "load_arrivals",
            "load_completions",
        ] {
            assert!(snap.counter_total(name) > 0, "{name} stayed zero");
        }
        assert!(ex.tel.flight_recorded() > 0);
        assert!(ex.load.all_slos_pass(), "{}", ex.load.summary());
    }
}
