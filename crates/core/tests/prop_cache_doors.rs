//! Fuzzing the cache's doors on a booted cluster: `cache_write`,
//! `record_write` and `record_try_read` with arbitrary node, region,
//! offset and length, and `spawn_remote`/`collect_remote` with
//! arbitrary node and slot. No call panics; exactly the requests that
//! name no node of the cluster, or do not fit a defined region or the
//! task table, are refused, each with the error that names it; and a
//! refused write leaves every replica as it was.

use ampnet_cache::NetworkCache;
use ampnet_core::{
    CacheError, Cluster, ClusterConfig, RecordLayout, SimDuration, TaskError, TaskKind,
};
use proptest::prelude::*;

/// Regions 0 and 2 are defined; 1 and 3 are not.
const REGIONS: [(u8, u32); 2] = [(0, 4096), (2, 300)];

/// The booted cluster's nodes.
const NODES: u8 = 4;

/// Task-table slots, in region 2 (`TABLE × 16` ≤ 300 bytes).
const TABLE: u32 = 16;

fn booted() -> Cluster {
    let cfg = ClusterConfig::small(4)
        .with_seed(31)
        .with_regions(REGIONS.to_vec());
    let mut c = Cluster::new(cfg);
    c.run_for(SimDuration::from_millis(5));
    assert!(c.ring_up());
    c.enable_threads(2, TABLE);
    c
}

/// What a request from `node` for `len` bytes at `offset` of `region`
/// must get.
fn expected(node: u8, region: u8, offset: u32, len: u64) -> Result<(), CacheError> {
    if node >= NODES {
        return Err(CacheError::UnknownNode(node));
    }
    let (_, size) = REGIONS
        .into_iter()
        .find(|&(id, _)| id == region)
        .ok_or(CacheError::NoRegion(region))?;
    if u64::from(offset) + len <= u64::from(size) {
        Ok(())
    } else {
        let len = len.min(u64::from(u32::MAX)) as u32;
        Err(CacheError::OutOfBounds {
            region,
            offset,
            len,
            size,
        })
    }
}

fn replicas(c: &Cluster) -> Vec<NetworkCache> {
    (0..NODES).map(|n| c.cache(n).unwrap().clone()).collect()
}

/// Mostly inside or just past the regions, sometimes anywhere in
/// `u32`, or at its very end.
fn arb_u32(near: u32) -> impl Strategy<Value = u32> {
    prop_oneof![
        0..near,
        0..near,
        0..near,
        any::<u32>(),
        (0u32..20).prop_map(|d| u32::MAX - d)
    ]
}

#[derive(Debug, Clone, Copy)]
enum Call {
    CacheWrite,
    RecordWrite,
    RecordTryRead,
    Spawn,
    Collect,
}

/// What a task call from `node` on `slot` must get: refused for an
/// unknown node or a slot past the table, else a free slot takes a
/// task and has no result.
fn expected_task(node: u8, slot: u32) -> Result<(), TaskError> {
    if node >= NODES {
        Err(TaskError::Cache(CacheError::UnknownNode(node)))
    } else if slot >= TABLE {
        Err(TaskError::NoSlot(slot))
    } else {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn a_request_is_refused_exactly_when_it_does_not_fit(
        call in prop_oneof![
            Just(Call::CacheWrite),
            Just(Call::RecordWrite),
            Just(Call::RecordTryRead),
            Just(Call::Spawn),
            Just(Call::Collect),
        ],
        node in prop_oneof![0..NODES, 0..NODES, 0..NODES, any::<u8>()],
        region in prop_oneof![Just(0u8), Just(0u8), Just(2u8), 0u8..4],
        offset in arb_u32(4400),
        len in arb_u32(400),
    ) {
        let mut c = booted();
        let before = replicas(&c);
        let layout = RecordLayout { region, offset, data_len: len };
        // A record holds two 8-byte counters around its data.
        let record = expected(node, region, offset, u64::from(len) + 16);
        // Data for a write that could fit; a longer one is refused on
        // its layout before its data is looked at.
        let data = vec![0xA5; len.min(5000) as usize];
        // The slot is drawn from `offset`, so slots past the table and
        // past a 16-bit cookie come up.
        let slot = offset;
        let got = match call {
            Call::CacheWrite => {
                let got = c.cache_write(node, region, offset, &data);
                prop_assert_eq!(&got, &expected(node, region, offset, data.len() as u64));
                got.is_ok()
            }
            Call::RecordWrite => {
                let got = c.record_write(node, layout, &data);
                prop_assert_eq!(&got, &record);
                got.is_ok()
            }
            Call::RecordTryRead => {
                let got = c.record_try_read(node, layout).map(|_| ());
                prop_assert_eq!(&got, &record);
                got.is_ok()
            }
            Call::Spawn => {
                let got = c.spawn_remote(node, slot, TaskKind::Increment, 1, 7);
                prop_assert_eq!(&got, &expected_task(node, slot));
                got.is_ok()
            }
            Call::Collect => {
                let got = c.collect_remote(node, slot);
                prop_assert_eq!(&got.clone().map(|_| ()), &expected_task(node, slot));
                prop_assert!(got.is_err() || got == Ok(None), "an empty slot has no result");
                false
            }
        };
        c.run_for(SimDuration::from_millis(1));
        prop_assert!(c.caches_converged());
        if !got {
            let after = replicas(&c);
            prop_assert!(before.iter().zip(&after).all(|(b, a)| b.converged_with(a)));
        }
    }
}
