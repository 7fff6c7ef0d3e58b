//! Cache refresh — how new nodes assimilate (slides 2, 17–18).
//!
//! "New nodes are assimilated with a cache refresh" / "Smart Data
//! Recovery is supported by Cache Refresh". A live *sponsor* node
//! streams its entire network cache to the joiner as unicast DMA
//! MicroPackets; the joiner applies them, then both sides compare
//! region CRCs (the diagnostics certification) before the joiner is
//! declared current.

use crate::store::{CacheError, NetworkCache, RegionId};
use ampnet_packet::{MicroPacket, MAX_DMA_PAYLOAD};

/// Sponsor-side streaming state.
#[derive(Debug)]
pub struct RefreshSource {
    regions: Vec<(RegionId, u32)>,
    cursor: usize,
    offset: u32,
    sent_bytes: u64,
    dst: u8,
}

impl RefreshSource {
    /// Start a refresh of every region of `cache` toward `dst`.
    #[expect(
        clippy::expect_used,
        reason = "id comes from the donor's region listing in this same chain"
    )]
    pub fn new(cache: &NetworkCache, dst: u8) -> Self {
        RefreshSource {
            regions: cache
                .region_ids()
                .into_iter()
                .map(|id| (id, cache.region_size(id).expect("listed region exists")))
                .collect(),
            cursor: 0,
            offset: 0,
            sent_bytes: 0,
            dst,
        }
    }

    /// Total bytes that will be streamed.
    pub fn total_bytes(&self) -> u64 {
        self.regions.iter().map(|&(_, sz)| sz as u64).sum()
    }

    /// Bytes streamed so far.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// Whether the stream is exhausted.
    pub fn done(&self) -> bool {
        self.cursor >= self.regions.len()
    }

    /// Produce the next batch of up to `max_packets` DMA packets from
    /// the sponsor's current cache state.
    pub fn next_batch(
        &mut self,
        cache: &NetworkCache,
        max_packets: usize,
    ) -> Result<Vec<MicroPacket>, CacheError> {
        let mut out = Vec::with_capacity(max_packets);
        while out.len() < max_packets && self.cursor < self.regions.len() {
            let (region, size) = self.regions[self.cursor];
            if self.offset >= size {
                self.cursor += 1;
                self.offset = 0;
                continue;
            }
            let len = MAX_DMA_PAYLOAD.min((size - self.offset) as usize);
            let data = cache.read(region, self.offset, len as u32)?;
            let pkts = NetworkCache::segment_packets(
                cache.node(),
                self.dst,
                region,
                self.offset,
                &data,
                15, // refresh rides the highest DMA channel
                0,
            );
            debug_assert_eq!(pkts.len(), 1);
            self.sent_bytes += len as u64;
            self.offset += len as u32;
            out.extend(pkts);
        }
        Ok(out)
    }
}

/// Joiner-side: define the regions, apply the stream, then certify.
#[derive(Debug)]
pub struct RefreshSink {
    received_bytes: u64,
}

impl Default for RefreshSink {
    fn default() -> Self {
        Self::new()
    }
}

impl RefreshSink {
    /// Fresh sink.
    pub fn new() -> Self {
        RefreshSink { received_bytes: 0 }
    }

    /// Prepare the joiner's cache with the same region table as the
    /// sponsor advertises (region id, size pairs).
    pub fn prepare(
        cache: &mut NetworkCache,
        regions: &[(RegionId, u32)],
    ) -> Result<(), CacheError> {
        for &(id, size) in regions {
            cache.define_region(id, size)?;
        }
        Ok(())
    }

    /// Apply one refresh packet.
    pub fn apply(
        &mut self,
        cache: &mut NetworkCache,
        pkt: &MicroPacket,
    ) -> Result<(), CacheError> {
        if cache.apply_packet(pkt)? {
            self.received_bytes += pkt.payload_bytes() as u64;
        }
        Ok(())
    }

    /// Bytes applied.
    pub fn received_bytes(&self) -> u64 {
        self.received_bytes
    }

    /// Certification: every region CRC matches the sponsor's.
    pub fn certify(joiner: &NetworkCache, sponsor: &NetworkCache) -> bool {
        joiner.converged_with(sponsor)
    }
}

/// Number of DMA packets a full refresh of `cache` takes.
pub fn refresh_packet_count(cache: &NetworkCache) -> u64 {
    cache
        .region_ids()
        .iter()
        .map(|&id| {
            #[expect(
                clippy::expect_used,
                reason = "id was enumerated from regions() directly above"
            )]
            let size = cache.region_size(id).expect("region exists") as u64;
            size.div_ceil(MAX_DMA_PAYLOAD as u64)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sponsor() -> NetworkCache {
        let mut c = NetworkCache::new(1);
        c.define_region(0, 1000).unwrap();
        c.define_region(5, 300).unwrap();
        c.write(0, 0, &vec![0x11; 1000], 0, 0).unwrap();
        c.write(5, 100, b"roster db", 0, 0).unwrap();
        c
    }

    #[test]
    fn full_refresh_converges_and_certifies() {
        let s = sponsor();
        let mut j = NetworkCache::new(9);
        RefreshSink::prepare(&mut j, &[(0, 1000), (5, 300)]).unwrap();
        assert!(!RefreshSink::certify(&j, &s), "not yet converged");

        let mut src = RefreshSource::new(&s, 9);
        let mut sink = RefreshSink::new();
        assert_eq!(src.total_bytes(), 1300);
        while !src.done() {
            for p in src.next_batch(&s, 8).unwrap() {
                sink.apply(&mut j, &p).unwrap();
            }
        }
        assert_eq!(sink.received_bytes(), 1300);
        assert_eq!(src.sent_bytes(), 1300);
        assert!(RefreshSink::certify(&j, &s));
        assert_eq!(&*j.read(5, 100, 9).unwrap(), b"roster db");
    }

    #[test]
    fn packet_count_matches_size() {
        let s = sponsor();
        // 1000 → 16 packets, 300 → 5 packets.
        assert_eq!(refresh_packet_count(&s), 21);
        let mut src = RefreshSource::new(&s, 9);
        let mut n = 0;
        while !src.done() {
            n += src.next_batch(&s, 4).unwrap().len();
        }
        assert_eq!(n as u64, refresh_packet_count(&s));
    }

    #[test]
    fn batching_respects_limit() {
        let s = sponsor();
        let mut src = RefreshSource::new(&s, 9);
        let b = src.next_batch(&s, 3).unwrap();
        assert_eq!(b.len(), 3);
        assert!(!src.done());
    }

    #[test]
    fn refresh_packets_are_unicast_to_joiner() {
        let s = sponsor();
        let mut src = RefreshSource::new(&s, 9);
        for p in src.next_batch(&s, 100).unwrap() {
            assert_eq!(p.ctrl.dst, 9);
            assert!(!p.ctrl.is_broadcast());
        }
    }

    #[test]
    fn empty_cache_refresh_is_trivial() {
        let empty = NetworkCache::new(0);
        let mut src = RefreshSource::new(&empty, 1);
        assert!(src.done());
        assert_eq!(src.total_bytes(), 0);
        assert!(src.next_batch(&empty, 10).unwrap().is_empty());
        assert_eq!(refresh_packet_count(&empty), 0);
    }
}
