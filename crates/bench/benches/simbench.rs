//! Criterion benchmarks of the simulation engines themselves:
//! events/second of the DES kernel, ring-segment throughput, the exact
//! largest-ring solver, and one full rostering episode.
//!
//! These bound how large an experiment the harness can run; they are
//! also regression alarms for the hot paths.

use ampnet_core::{Cluster, ClusterConfig};
use ampnet_phy::LinkParams;
use ampnet_ring::{Segment, SegmentParams};
use ampnet_roster::{run_rostering, RosterParams};
use ampnet_sim::{Sim, SimDuration, SimTime};
use ampnet_topo::montecarlo::Component;
use ampnet_topo::{NodeId, Plant, SwitchId};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_des_kernel(c: &mut Criterion) {
    c.bench_function("des/100k_events", |b| {
        b.iter(|| {
            let mut sim: Sim<u32> = Sim::new(1);
            for i in 0..1000u32 {
                sim.schedule_at(SimTime(i as u64), i);
            }
            let mut n = 0u64;
            while let Some((_, ev)) = sim.pop_next(SimTime::MAX) {
                n += 1;
                if n < 100_000 {
                    sim.schedule_in(SimDuration::from_nanos(ev as u64 % 97 + 1), ev);
                }
            }
            black_box(n)
        })
    });
}

fn bench_segment(c: &mut Criterion) {
    c.bench_function("segment/8node_1ms_saturated", |b| {
        b.iter(|| {
            let params = SegmentParams {
                n_nodes: 8,
                link: LinkParams::gigabit(100.0),
                ..Default::default()
            };
            let mut seg = Segment::new(params, 3);
            seg.all_to_all_broadcast(1.5);
            black_box(seg.run_for(SimDuration::from_millis(1)))
        })
    });
}

fn bench_ring_solver(c: &mut Criterion) {
    let mut plant = Plant::crossbar(64, 4, 100.0);
    // Damage it so the solver does real work.
    plant.apply(Component::Switch(SwitchId(0)));
    for n in [3u8, 9, 17, 33] {
        plant.apply(Component::Link(NodeId(n), SwitchId(1)));
    }
    c.bench_function("topo/largest_ring_64n_damaged", |b| {
        b.iter(|| black_box(black_box(&plant).largest_ring()))
    });
}

fn bench_rostering(c: &mut Criterion) {
    let mut topo = Plant::crossbar(64, 4, 100.0);
    let ring = topo.largest_ring();
    let dead = ring.order[10];
    topo.apply(Component::Node(dead));
    let params = RosterParams::default();
    c.bench_function("roster/episode_64n", |b| {
        b.iter(|| {
            black_box(
                run_rostering(
                    &topo,
                    &ring,
                    Component::Node(dead),
                    SimTime::ZERO,
                    0,
                    &params,
                )
                .unwrap(),
            )
        })
    });
}

fn bench_cluster(c: &mut Criterion) {
    c.bench_function("cluster/boot_plus_5ms_8n", |b| {
        b.iter(|| {
            let mut cl = Cluster::new(ClusterConfig::small(8).with_seed(4));
            cl.run_for(SimDuration::from_millis(5));
            cl.send_message(0, 7, 0, b"bench");
            cl.run_for(SimDuration::from_millis(1));
            black_box(cl.total_drops())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_des_kernel, bench_segment, bench_ring_solver, bench_rostering, bench_cluster
}
criterion_main!(benches);
