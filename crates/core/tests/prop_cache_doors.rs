//! Fuzzing the cache's doors on a booted cluster: `cache_write`,
//! `record_write` and `record_try_read` with arbitrary region, offset
//! and length. No call panics; exactly the requests that do not fit a
//! defined region are refused, each with the `CacheError` that names
//! it; and a refused write leaves every replica as it was.

use ampnet_cache::NetworkCache;
use ampnet_core::{CacheError, Cluster, ClusterConfig, RecordLayout, SimDuration};
use proptest::prelude::*;

/// Regions 0 and 2 are defined; 1 and 3 are not.
const REGIONS: [(u8, u32); 2] = [(0, 4096), (2, 300)];

fn booted() -> Cluster {
    let cfg = ClusterConfig::small(4)
        .with_seed(31)
        .with_regions(REGIONS.to_vec());
    let mut c = Cluster::new(cfg);
    c.run_for(SimDuration::from_millis(5));
    assert!(c.ring_up());
    c
}

/// What a request for `len` bytes at `offset` of `region` must get.
fn expected(region: u8, offset: u32, len: u64) -> Result<(), CacheError> {
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
    (0..4).map(|n| c.cache(n).clone()).collect()
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn a_request_is_refused_exactly_when_it_does_not_fit(
        call in prop_oneof![Just(Call::CacheWrite), Just(Call::RecordWrite), Just(Call::RecordTryRead)],
        node in 0u8..4,
        region in prop_oneof![Just(0u8), Just(0u8), Just(2u8), 0u8..4],
        offset in arb_u32(4400),
        len in arb_u32(400),
    ) {
        let mut c = booted();
        let before = replicas(&c);
        let layout = RecordLayout { region, offset, data_len: len };
        // A record holds two 8-byte counters around its data.
        let record = expected(region, offset, u64::from(len) + 16);
        // Data for a write that could fit; a longer one is refused on
        // its layout before its data is looked at.
        let data = vec![0xA5; len.min(5000) as usize];
        let (got, want) = match call {
            Call::CacheWrite => (
                c.cache_write(node, region, offset, &data),
                expected(region, offset, data.len() as u64),
            ),
            Call::RecordWrite => (c.record_write(node, layout, &data), record),
            Call::RecordTryRead => (c.record_try_read(node, layout).map(|_| ()), record),
        };
        prop_assert_eq!(&got, &want);
        c.run_for(SimDuration::from_millis(1));
        prop_assert!(c.caches_converged());
        if got.is_err() {
            let after = replicas(&c);
            prop_assert!(before.iter().zip(&after).all(|(b, a)| b.converged_with(a)));
        }
    }
}
