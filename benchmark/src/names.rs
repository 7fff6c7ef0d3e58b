//! The benchmark's vocabulary: workloads, end-to-end metrics and
//! per-layer metrics, by name, with unit and direction. `BENCHMARK.json`
//! at the repository root is generated from these tables
//! (`benchmark --emit-benchmark-json`) and a unit test keeps the two in
//! step.

/// Seed of the committed golden values (`golden.json`). Deliberately
/// not a small number: an acceptance driver that counts seeds up from
/// 0 or 1 must not run into the golden comparison, or a later PR that
/// changes the model on purpose would be told its outputs are wrong.
pub const DEFAULT_SEED: u64 = 20_030_422;

/// What one measuring run lasts when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 10.0;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "ring_saturated",
        why: "smallest cells at 1.5x ring capacity, no transport or services: per-packet cost of ring MAC, packet arena and sim queue undiluted; the one workload where the modelled ring is saturated",
    },
    WorkloadInfo {
        name: "multiseg_scale",
        why: "16x32-node segments, mixed-size datagrams: core dispatch, transport, PDES planner and msg fragmentation dominate, large cache footprint, rings lightly loaded so a MAC-only gain should barely move it",
    },
    WorkloadInfo {
        name: "chaos_heal",
        why: "ten crash/cut/fail/rejoin/repair cycles under traffic: roster, topo ring solving, dk assimilation, cache refresh and replay do the work, steady forwarding little; carries the recovery claims",
    },
    WorkloadInfo {
        name: "services_load",
        why: "open-loop Poisson load on five service classes: services, cache seqlock/semaphores and the load driver dominate; its rate ladder finds the knee where a class first misses its objective",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which clock (or none) a metric is read on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Host time or memory: noisy, compared within a bound.
    Host,
    /// Simulated time or a count: a pure function of (code, seed),
    /// must repeat bit for bit.
    Exact,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    pub kind: Kind,
}

use Better::{Higher, Lower};
use Kind::{Exact, Host};

/// The bounds are sized by the acceptance rule, which runs every
/// workload on ten *different* seeds and wants the inter-quartile range
/// of each metric (as a share of its median) inside the bound, and by
/// the advice to see a third of that. Measured over two sets of ten
/// seeds: `ops_per_cal_s` 2–8 % (the host cost of a pass differs by
/// seed by several percent, on top of ≈ 2 % measurement noise),
/// `peak_rss_mib` 0.2–7 %, the simulated delays 0.02–9 % (the saturated
/// ring locks into a seed-dependent circulation pattern),
/// `sim_ops_per_s` 0–2.7 %. See README, "Noise measurements".
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        kind: Host,
    },
    EndToEnd {
        name: "ops_per_cal_s",
        unit: "ops/s",
        better: Higher,
        bound: 0.25,
        kind: Host,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
        kind: Host,
    },
    EndToEnd {
        name: "sim_ops_per_s",
        unit: "ops/sim-s",
        better: Higher,
        bound: 0.10,
        kind: Exact,
    },
    EndToEnd {
        name: "sim_delay_typical_ns",
        unit: "sim-ns",
        better: Lower,
        bound: 0.25,
        kind: Exact,
    },
    EndToEnd {
        name: "sim_delay_tail_ns",
        unit: "sim-ns",
        better: Lower,
        bound: 0.25,
        kind: Exact,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn leg(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: Lower,
        kind: Host,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        kind: Exact,
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        kind: Host,
    }
}

/// Layer = crate name. Legs (unit `ns`) are host ns per operation of
/// the layer's public functions in isolation; the rest are counts and
/// simulated statistics read per workload in the traced run. A count of
/// 0 means the layer did no such work on that workload.
pub const PER_LAYER: [PerLayer; 98] = [
    // phy
    leg("phy.encode_ns_per_byte"),
    leg("phy.decode_ns_per_group"),
    leg("phy.crc32_ns_per_byte"),
    exact("phy.tx_frames_per_op", "count", Lower),
    // packet
    leg("packet.encode_into_fixed_ns"),
    leg("packet.encode_into_dma64_ns"),
    leg("packet.decode_ref_fixed_ns"),
    leg("packet.decode_ref_dma64_ns"),
    leg("packet.arena_insert_release_ns"),
    exact("packet.arena_reuse_ratio", "ratio", Higher),
    exact("packet.arena_peak_live", "count", Lower),
    // ring
    leg("ring.mac_on_arrival_ns"),
    leg("ring.mac_next_tx_ns"),
    leg("ring.stack_hop_ns"),
    leg("ring.enqueue_packet_ns"),
    exact("ring.inserted_per_op", "count", Lower),
    exact("ring.forwarded_per_op", "count", Lower),
    exact("ring.stripped_per_op", "count", Lower),
    exact("ring.backlog_frames", "count", Lower),
    exact("ring.backoffs", "count", Lower),
    exact("ring.transit_highwater_bytes", "bytes", Lower),
    exact("ring.access_wait_p99_ns", "sim-ns", Lower),
    exact("ring.fairness_jain", "ratio", Higher),
    // sim
    leg("sim.queue_hold_ns_per_pop"),
    leg("sim.queue_cancel_ns"),
    leg("sim.pop_batch_ns_per_event"),
    exact("sim.events_per_op", "count", Lower),
    host("sim.host_ns_per_event", "ns", Lower),
    // topo
    leg("topo.largest_ring_crossbar16_ns"),
    leg("topo.largest_ring_torus16_ns"),
    leg("topo.largest_ring_crossbar64_damaged_ns"),
    exact("topo.ring_size_final", "count", Higher),
    // roster
    leg("roster.run_rostering_16n_ns"),
    exact("roster.episodes", "count", Lower),
    exact("roster.recovery_tours_max", "ratio", Lower),
    exact("roster.recovery_mean_ns", "sim-ns", Lower),
    // cache
    leg("cache.apply_packet_ns"),
    leg("cache.write_record_ns"),
    leg("cache.try_read_ns"),
    exact("cache.updates_applied_per_op", "count", Lower),
    exact("cache.seqlock_busy_ratio", "ratio", Lower),
    exact("cache.atomics_per_op", "count", Lower),
    exact("cache.sem_acquire_p99_ns", "sim-ns", Lower),
    // dk
    leg("dk.failover_poll_ns"),
    exact("dk.rejoins", "count", Higher),
    // services
    leg("services.msg_send_256b_ns"),
    leg("services.msg_reassemble_256b_ns"),
    leg("services.publish_ns"),
    leg("services.subscriber_poll_ns"),
    leg("services.file_write_ns"),
    leg("services.file_stat_ns"),
    exact("services.fragments_per_msg", "count", Lower),
    exact("services.pubsub_p99_ns", "sim-ns", Lower),
    exact("services.cache_p99_ns", "sim-ns", Lower),
    exact("services.socket_p99_ns", "sim-ns", Lower),
    exact("services.threads_p99_ns", "sim-ns", Lower),
    exact("services.sem_p99_ns", "sim-ns", Lower),
    exact("services.pubsub_failed_ppm", "ppm", Lower),
    exact("services.cache_failed_ppm", "ppm", Lower),
    exact("services.socket_failed_ppm", "ppm", Lower),
    exact("services.threads_failed_ppm", "ppm", Lower),
    exact("services.sem_failed_ppm", "ppm", Lower),
    // core
    leg("core.cluster_boot_8n_ns"),
    leg("core.send_deliver_ns"),
    exact("core.replayed_per_episode", "count", Lower),
    exact("core.stale_frames_released", "count", Lower),
    exact("core.pdes_slices", "count", Lower),
    exact("core.pdes_quiescent_ratio", "ratio", Higher),
    exact("core.pdes_barriers_elided_ratio", "ratio", Higher),
    exact("core.pdes_exchanges_elided_ratio", "ratio", Higher),
    host("core.threads2_speedup", "ratio", Higher),
    exact("core.mode_digests_equal", "count", Higher),
    // chaos
    host("chaos.run_ns_per_step", "ns", Lower),
    exact("chaos.violations", "count", Lower),
    exact("chaos.doomed_ppm", "ppm", Lower),
    // load
    leg("load.arrival_gen_ns_per_arrival"),
    exact("load.offered", "count", Higher),
    exact("load.dispatched_ppm", "ppm", Higher),
    exact("load.shed_ppm", "ppm", Lower),
    exact("load.rung4000_failed_ppm", "ppm", Lower),
    exact("load.rung8000_failed_ppm", "ppm", Lower),
    exact("load.rung12000_failed_ppm", "ppm", Lower),
    exact("load.rung16000_failed_ppm", "ppm", Lower),
    exact("load.max_clean_offered_ops_s", "ops/sim-s", Higher),
    // telemetry
    leg("telemetry.counter_inc_ns"),
    leg("telemetry.hist_record_ns"),
    host("telemetry.traced_overhead_ratio", "ratio", Higher),
    // harness
    host("harness.inject_self_s", "s", Lower),
    host("harness.advance_self_s", "s", Lower),
    host("harness.drain_self_s", "s", Lower),
    host("harness.verify_self_s", "s", Lower),
    host("harness.allocs_per_op", "count", Lower),
    host("harness.alloc_bytes_per_op", "bytes", Lower),
    host("harness.attributed_share", "ratio", Higher),
    host("harness.ops_per_host_s_median", "ops/s", Higher),
    host("harness.pass_spread", "ratio", Lower),
    host("harness.ref_mops_median", "Mops/s", Higher),
    exact("harness.ops_failed_ppm", "ppm", Lower),
];

/// Unit and kind of a declared metric, end-to-end or per-layer.
pub fn find(name: &str) -> Option<(&'static str, Kind)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.kind))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.kind)))
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, kind)| (unit, kind))
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    use crate::json::{number, quote};
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {},\n", DEFAULT_SECONDS as u64));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            quote(w.name),
            quote(w.why)
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str()),
            number(m.bound)
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}\n",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str())
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in all {
            assert!(well_formed(name, 64, "_.-"), "bad name {name:?}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name:?} must start alphanumeric"
            );
            assert!(seen.insert(name), "name {name:?} is used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(well_formed(unit, 16, "_/%.-"), "bad unit {unit:?}");
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {} is too long",
                w.name
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
        assert!(
            PER_LAYER.len() <= 128 && END_TO_END.len() <= 16 && (2..=8).contains(&WORKLOADS.len())
        );
    }

    #[test]
    fn every_leg_and_workload_is_declared() {
        let declared: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        for leg in crate::legs::names() {
            assert!(
                declared.contains(leg),
                "leg {leg} is measured but not in PER_LAYER"
            );
        }
        let legs: BTreeSet<&str> = crate::legs::names().into_iter().collect();
        for m in PER_LAYER
            .iter()
            .filter(|m| m.unit == "ns" && m.kind == Kind::Host)
        {
            let derived = ["sim.host_ns_per_event", "chaos.run_ns_per_step"].contains(&m.name);
            assert!(
                derived || legs.contains(m.name),
                "{} is declared a leg but nothing measures it",
                m.name
            );
        }
        for w in &WORKLOADS {
            assert!(
                crate::workloads::find(w.name).is_some(),
                "workload {} has no driver",
                w.name
            );
        }
        assert_eq!(WORKLOADS.len(), crate::workloads::ALL.len());
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            benchmark_json(),
            "regenerate with `benchmark --emit-benchmark-json > BENCHMARK.json`"
        );
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let listed = |key: &str| -> Vec<String> {
            doc.get(key)
                .unwrap()
                .as_array()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(
            listed("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            listed("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            listed("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert!(text.len() <= 64 * 1024);
    }
}
