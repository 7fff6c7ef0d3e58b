//! Property tests for the network cache: replica convergence under
//! arbitrary write sequences, seqlock snapshot consistency under
//! arbitrary packet-application prefixes, regions allocated on first
//! write against a flat zero-filled model, and hostile writes that must
//! neither panic nor allocate.

// Case-count-heavy property sweeps are a poor fit for Miri's
// interpreter; the UB surface they exercise is pure safe Rust anyway.
#![cfg(not(miri))]

use ampnet_cache::seqlock_msg::{self, ReadOutcome, RecordLayout};
use ampnet_cache::{CacheError, NetworkCache, RegionId};
use ampnet_packet::{build, Body, DmaCtrl, MicroPacket, BROADCAST, MAX_DMA_PAYLOAD};
use ampnet_phy::crc32;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// The flat model: one `Vec<u8>` per region, zero-filled at define,
/// and the set of regions a write has stored a byte into.
#[derive(Default)]
struct Flat {
    regions: BTreeMap<RegionId, Vec<u8>>,
    stored: BTreeSet<RegionId>,
}

impl Flat {
    fn define(&mut self, id: RegionId, size: u32) -> Result<(), CacheError> {
        if self.regions.contains_key(&id) {
            return Err(CacheError::Exists(id));
        }
        self.regions.insert(id, vec![0; size as usize]);
        Ok(())
    }

    fn span(&self, id: RegionId, offset: u32, len: u32) -> Result<Range<usize>, CacheError> {
        let size = self.regions.get(&id).ok_or(CacheError::NoRegion(id))?.len() as u32;
        match offset.checked_add(len) {
            Some(end) if end <= size => Ok(offset as usize..end as usize),
            _ => Err(CacheError::OutOfBounds {
                region: id,
                offset,
                len,
                size,
            }),
        }
    }

    fn write(&mut self, id: RegionId, offset: u32, data: &[u8]) -> Result<(), CacheError> {
        let span = self.span(id, offset, data.len() as u32)?;
        if !data.is_empty() {
            self.stored.insert(id);
        }
        self.regions.get_mut(&id).expect("spanned")[span].copy_from_slice(data);
        Ok(())
    }

    fn read(&self, id: RegionId, offset: u32, len: u32) -> Result<&[u8], CacheError> {
        let span = self.span(id, offset, len)?;
        Ok(&self.regions[&id][span])
    }

    /// What a replica must hold: the whole of every region written.
    fn resident_bytes(&self) -> u64 {
        self.stored
            .iter()
            .map(|id| self.regions[id].len() as u64)
            .sum()
    }

    /// A replica whose every region is written in full, zeros included.
    fn written_replica(&self) -> NetworkCache {
        let mut c = NetworkCache::new(200);
        for (&id, bytes) in &self.regions {
            c.define_region(id, bytes.len() as u32).unwrap();
            c.write(id, 0, bytes, 0, 0).unwrap();
        }
        c
    }

    fn size(&self, id: RegionId) -> u32 {
        self.regions.get(&id).map_or(0, |r| r.len() as u32)
    }
}

/// A DMA packet carrying `len` (0..=64) bytes of `fill`, built past
/// `build::dma`'s 1..=64 check so a zero-length update reaches the
/// replica too.
fn dma_packet(region: RegionId, offset: u32, len: u16, fill: u8) -> MicroPacket {
    let ctrl = DmaCtrl {
        channel: 0,
        region,
        offset,
        len: 0,
    };
    let mut pkt = build::dma(7, BROADCAST, 0, ctrl, &[fill]).unwrap();
    if let Body::Variable { ctrl, data } = &mut pkt.body {
        ctrl.len = len;
        data.fill(fill);
    }
    pkt
}

/// Where an access lands relative to its region.
#[derive(Debug, Clone)]
enum At {
    /// Anywhere from 0 to one past the end.
    Inside(Index),
    /// Ending exactly at the region's last byte.
    EndsAtLast,
    /// Near `u32::MAX`, where `offset + len` overflows.
    Huge(u32),
}

impl At {
    fn offset(&self, size: u32, len: u32) -> u32 {
        match self {
            At::Inside(i) => i.index(size as usize + 1) as u32,
            At::EndsAtLast => size.saturating_sub(len),
            At::Huge(back) => u32::MAX - back,
        }
    }
}

fn arb_at() -> impl Strategy<Value = At> {
    prop_oneof![
        any::<Index>().prop_map(At::Inside),
        Just(At::EndsAtLast),
        (0u32..80).prop_map(At::Huge),
    ]
}

#[derive(Debug, Clone)]
enum CacheOp {
    Define(RegionId, u32),
    Write(RegionId, At, Vec<u8>),
    ApplyPacket(RegionId, At, u16, u8),
    WriteU64(RegionId, At, u64),
    Read(RegionId, At, u32),
    ReadU64(RegionId, At),
    Crc(RegionId),
    Converged,
}

fn arb_cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    let id = || 0u8..5;
    let size = prop_oneof![0u32..16, 16u32..512, 4000u32..4200, 4200u32..12000];
    let read_len = prop_oneof![0u32..=16, 4090u32..=4100, 0u32..=12000];
    proptest::collection::vec(
        prop_oneof![
            (id(), size).prop_map(|(i, s)| CacheOp::Define(i, s)),
            (
                id(),
                arb_at(),
                proptest::collection::vec(any::<u8>(), 0..200)
            )
                .prop_map(|(i, at, d)| CacheOp::Write(i, at, d)),
            (id(), arb_at(), 0u16..=MAX_DMA_PAYLOAD as u16, any::<u8>())
                .prop_map(|(i, at, len, fill)| CacheOp::ApplyPacket(i, at, len, fill)),
            (id(), arb_at(), any::<u64>()).prop_map(|(i, at, v)| CacheOp::WriteU64(i, at, v)),
            (id(), arb_at(), read_len).prop_map(|(i, at, len)| CacheOp::Read(i, at, len)),
            (id(), arb_at()).prop_map(|(i, at)| CacheOp::ReadU64(i, at)),
            id().prop_map(CacheOp::Crc),
            Just(CacheOp::Converged),
        ],
        1..40,
    )
}

proptest! {
    /// Applying a writer's packets in order converges any replica,
    /// regardless of write pattern.
    #[test]
    fn replicas_converge(
        writes in proptest::collection::vec(
            (0u32..2000, proptest::collection::vec(any::<u8>(), 1..200)),
            1..20
        ),
    ) {
        let mut writer = NetworkCache::new(0);
        let mut replica = NetworkCache::new(1);
        writer.define_region(0, 4096).unwrap();
        replica.define_region(0, 4096).unwrap();
        for (offset, data) in &writes {
            let offset = offset % (4096 - data.len() as u32);
            let pkts = writer.write(0, offset, data, 0, 0).unwrap();
            for p in &pkts {
                replica.apply_packet(p).unwrap();
            }
        }
        prop_assert!(writer.converged_with(&replica));
    }

    /// Seqlock invariant: at ANY prefix of the update packet stream, a
    /// reader either gets Busy or a snapshot equal to some complete
    /// generation — never a torn mix.
    #[test]
    fn seqlock_never_yields_torn_snapshots(
        generations in 2u8..6,
        data_len in 16u32..120,
        cut in any::<prop::sample::Index>(),
    ) {
        let layout = RecordLayout { region: 0, offset: 8, data_len };
        let mut writer = NetworkCache::new(0);
        writer.define_region(0, 4096).unwrap();
        // Record every generation's packet sequence.
        let mut all_pkts = vec![];
        for g in 1..=generations {
            let pkts = seqlock_msg::write_record(
                &mut writer, layout, &vec![g; data_len as usize], 0, 0,
            ).unwrap();
            all_pkts.extend(pkts);
        }
        // Apply an arbitrary prefix at a replica.
        let k = cut.index(all_pkts.len() + 1);
        let mut replica = NetworkCache::new(1);
        replica.define_region(0, 4096).unwrap();
        for p in &all_pkts[..k] {
            replica.apply_packet(p).unwrap();
        }
        match seqlock_msg::try_read(&replica, layout).unwrap() {
            ReadOutcome::Busy => {} // always acceptable
            ReadOutcome::Ok { data, generation } => {
                // Accepted snapshots must be uniform and match their
                // generation tag (generation 0 = initial zeroes).
                let expect = if generation == 0 { 0u8 } else { generation as u8 };
                prop_assert!(
                    data.iter().all(|&b| b == expect),
                    "torn snapshot for generation {}: {:?}", generation, &data[..8]
                );
            }
        }
    }

    /// CRC audit: equal regions always agree; any byte difference is
    /// detected.
    #[test]
    fn crc_audit_detects_any_divergence(
        base in proptest::collection::vec(any::<u8>(), 64..256),
        flip_at in any::<prop::sample::Index>(),
    ) {
        let size = base.len() as u32;
        let mut a = NetworkCache::new(0);
        let mut b = NetworkCache::new(1);
        a.define_region(2, size).unwrap();
        b.define_region(2, size).unwrap();
        a.write(2, 0, &base, 0, 0).unwrap();
        b.write(2, 0, &base, 0, 0).unwrap();
        prop_assert_eq!(a.region_crc(2).unwrap(), b.region_crc(2).unwrap());
        // Flip one byte in b.
        let i = flip_at.index(base.len()) as u32;
        let mut flipped = [0u8; 1];
        flipped[0] = base[i as usize] ^ 0x40;
        b.write(2, i, &flipped, 0, 0).unwrap();
        prop_assert_ne!(a.region_crc(2).unwrap(), b.region_crc(2).unwrap());
        prop_assert!(!a.converged_with(&b));
    }

    /// A replica whose regions are allocated by their first write
    /// answers every query exactly like one zero-filled `Vec<u8>` per
    /// region, holds exactly the regions a write stored into, and
    /// converges with a replica that wrote every byte (zeros included).
    #[test]
    fn lazy_regions_match_flat_model(ops in arb_cache_ops()) {
        let mut cache = NetworkCache::new(1);
        let mut flat = Flat::default();
        for op in &ops {
            match op {
                CacheOp::Define(id, size) => {
                    prop_assert_eq!(cache.define_region(*id, *size), flat.define(*id, *size));
                }
                CacheOp::Write(id, at, data) => {
                    let offset = at.offset(flat.size(*id), data.len() as u32);
                    let got = cache.write(*id, offset, data, 0, 0);
                    let want = flat.write(*id, offset, data);
                    prop_assert_eq!(got.as_ref().err(), want.as_ref().err(), "{:?}", op);
                    if let Ok(pkts) = got {
                        prop_assert_eq!(pkts.len(), data.len().div_ceil(MAX_DMA_PAYLOAD));
                    }
                }
                CacheOp::ApplyPacket(id, at, len, fill) => {
                    let offset = at.offset(flat.size(*id), u32::from(*len));
                    let got = cache.apply_packet(&dma_packet(*id, offset, *len, *fill));
                    let want = flat.write(*id, offset, &vec![*fill; *len as usize]);
                    prop_assert_eq!(got, want.map(|()| true), "{:?}", op);
                }
                CacheOp::WriteU64(id, at, v) => {
                    let offset = at.offset(flat.size(*id), 8);
                    let got = cache.write_u64_local(*id, offset, *v);
                    prop_assert_eq!(got, flat.write(*id, offset, &v.to_be_bytes()), "{:?}", op);
                }
                CacheOp::Read(id, at, len) => {
                    let offset = at.offset(flat.size(*id), *len);
                    let got = cache.read(*id, offset, *len);
                    let want = flat.read(*id, offset, *len);
                    prop_assert_eq!(got.as_deref(), want.as_ref().copied(), "{:?}", op);
                }
                CacheOp::ReadU64(id, at) => {
                    let offset = at.offset(flat.size(*id), 8);
                    let want = flat
                        .read(*id, offset, 8)
                        .map(|b| u64::from_be_bytes(b.try_into().unwrap()));
                    prop_assert_eq!(cache.read_u64(*id, offset), want, "{:?}", op);
                }
                CacheOp::Crc(id) => {
                    let want = flat.read(*id, 0, flat.size(*id)).map(crc32);
                    prop_assert_eq!(cache.region_crc(*id), want, "{:?}", op);
                }
                CacheOp::Converged => {
                    let written = flat.written_replica();
                    prop_assert!(cache.converged_with(&written));
                    prop_assert!(written.converged_with(&cache));
                    let joiner = cache.rehomed(9);
                    prop_assert!(joiner.converged_with(&cache));
                    prop_assert_eq!(joiner.resident_bytes(), cache.resident_bytes());
                    // One flipped byte anywhere breaks convergence.
                    if let Some((&id, bytes)) = flat.regions.iter().find(|(_, b)| !b.is_empty()) {
                        let mut off = written.clone();
                        let last = bytes.len() as u32 - 1;
                        off.write(id, last, &[bytes[last as usize] ^ 1], 0, 0).unwrap();
                        prop_assert!(!cache.converged_with(&off));
                        prop_assert!(!off.converged_with(&cache));
                    }
                }
            }
            prop_assert_eq!(cache.resident_bytes(), flat.resident_bytes(), "after {:?}", op);
        }
        let ids: Vec<RegionId> = flat.regions.keys().copied().collect();
        prop_assert_eq!(cache.region_ids(), ids);
        for (&id, bytes) in &flat.regions {
            prop_assert_eq!(cache.region_size(id), Ok(bytes.len() as u32));
        }
    }

    /// Hostile input cannot make a replica allocate: DMA updates for
    /// any region id (defined or not), at offsets up to `u32::MAX`, of
    /// 0..=64 bytes, and local writes of any shape, never panic; each
    /// rejection is the typed error the flat model predicts; and no
    /// rejected or zero-length write changes `resident_bytes()`.
    #[test]
    fn hostile_writes_never_panic_or_allocate(
        defined in proptest::collection::vec((0u8..4, 0u32..300), 1..5),
        packets in proptest::collection::vec(
            (
                prop_oneof![0u8..4, any::<u8>()],
                prop_oneof![0u32..400, (u32::MAX - 70)..=u32::MAX, any::<u32>()],
                0u16..=MAX_DMA_PAYLOAD as u16,
                any::<u8>(),
            ),
            1..40,
        ),
        writes in proptest::collection::vec(
            (
                prop_oneof![0u8..4, any::<u8>()],
                prop_oneof![0u32..400, (u32::MAX - 70)..=u32::MAX, any::<u32>()],
                proptest::collection::vec(any::<u8>(), 0..80),
                any::<bool>(),
            ),
            1..40,
        ),
    ) {
        let mut cache = NetworkCache::new(1);
        let mut flat = Flat::default();
        for (id, size) in defined {
            prop_assert_eq!(cache.define_region(id, size), flat.define(id, size));
        }
        for (id, offset, len, fill) in packets {
            let before = cache.resident_bytes();
            let got = cache.apply_packet(&dma_packet(id, offset, len, fill)).map(|_| ());
            let want = flat.write(id, offset, &vec![fill; len as usize]);
            hostile_outcome(&cache, &flat, before, got, want, len.into());
        }
        for (id, offset, data, as_word) in writes {
            let before = cache.resident_bytes();
            if as_word {
                let word = u64::from_le_bytes(std::array::from_fn(|i| data.get(i).copied().unwrap_or(0)));
                let got = cache.write_u64_local(id, offset, word);
                let want = flat.write(id, offset, &word.to_be_bytes());
                hostile_outcome(&cache, &flat, before, got, want, 8);
            } else {
                let got = cache.write(id, offset, &data, 0, 0).map(|_| ());
                let want = flat.write(id, offset, &data);
                hostile_outcome(&cache, &flat, before, got, want, data.len());
            }
        }
    }
}

/// One hostile write's verdict: the model's typed outcome, and no
/// allocation unless a byte was stored.
fn hostile_outcome(
    cache: &NetworkCache,
    flat: &Flat,
    before: u64,
    got: Result<(), CacheError>,
    want: Result<(), CacheError>,
    len: usize,
) {
    assert_eq!(got, want);
    if got.is_err() || len == 0 {
        assert_eq!(
            cache.resident_bytes(),
            before,
            "nothing stored, nothing allocated"
        );
    }
    assert_eq!(cache.resident_bytes(), flat.resident_bytes());
}
