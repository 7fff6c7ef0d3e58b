//! The replicated network cache (slides 2, 9–11).
//!
//! "Use Network Cache to keep the same information at every node":
//! every AmpNet NIC carries 2–256 MB of cache memory organized into
//! *regions*. Writes are applied locally and broadcast as DMA
//! MicroPackets; every replica applies them in source order (the ring
//! preserves per-source FIFO), so all copies converge. Reads are
//! local and instantaneous — that is the whole point of the design.
//!
//! A simulated host holds one replica per node, so a region's bytes
//! are allocated by the first write that stores into it, not when it is
//! defined: a cluster whose nodes only exchange messages costs no cache
//! memory however large the configured regions are (at the paper's
//! smallest 2 MB, 512 nodes would otherwise need 1 GiB). Until then the
//! region reads as zeros, and [`NetworkCache::read`] returns a
//! [`Cow`]: borrowed from the region once written, borrowed from a
//! static zero block for a short read of a never-written region, owned
//! only for a longer one. Every observable answer — reads, sizes, CRCs,
//! convergence — is the same as if the region had been zero-filled at
//! definition.
//!
//! The region table is sized the same way: it holds one slot per id up
//! to the highest one defined, not one per value of the 8-bit `region`
//! byte, so a replica that defines ids 0–9 holds ten slots and a
//! replica that defines none holds nothing. An id past the end of the
//! table is simply not defined.

use std::borrow::Cow;
use std::ops::Range;

use ampnet_packet::{build, Body, DmaCtrl, MicroPacket, BROADCAST, MAX_DMA_PAYLOAD};
use ampnet_phy::crc32;
use ampnet_telemetry::{defs, CounterHandle, Telemetry};

/// Identifier of a cache region (the DMA control `region` byte).
pub type RegionId = u8;

/// Errors from cache operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// Region not defined at this replica.
    NoRegion(RegionId),
    /// Access past the end of the region.
    OutOfBounds {
        /// Region accessed.
        region: RegionId,
        /// Requested offset.
        offset: u32,
        /// Requested length.
        len: u32,
        /// Region size.
        size: u32,
    },
    /// Region already defined.
    Exists(RegionId),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::NoRegion(r) => write!(f, "region {r} not defined"),
            CacheError::OutOfBounds {
                region,
                offset,
                len,
                size,
            } => write!(
                f,
                "access [{offset}, {offset}+{len}) out of bounds of region {region} (size {size})"
            ),
            CacheError::Exists(r) => write!(f, "region {r} already defined"),
        }
    }
}

impl std::error::Error for CacheError {}

/// Per-replica handles into a shared telemetry registry (inert until
/// [`NetworkCache::set_telemetry`]).
#[derive(Debug, Clone)]
struct CacheTelemetry {
    tel: Telemetry,
    updates: CounterHandle,
    seq_writes: CounterHandle,
    seq_reads_ok: CounterHandle,
    seq_reads_busy: CounterHandle,
    atomics: CounterHandle,
}

impl CacheTelemetry {
    fn disabled() -> Self {
        CacheTelemetry {
            tel: Telemetry::disabled(),
            updates: CounterHandle::NONE,
            seq_writes: CounterHandle::NONE,
            seq_reads_ok: CounterHandle::NONE,
            seq_reads_busy: CounterHandle::NONE,
            atomics: CounterHandle::NONE,
        }
    }
}

/// Reads of a never-written region up to this length borrow from it.
static ZEROS: [u8; 4096] = [0; 4096];

/// One defined region: its size, and its bytes once written.
#[derive(Debug, Clone)]
struct Region {
    size: u32,
    /// Empty until the first write that stores a byte, then exactly
    /// `size` bytes; empty reads as all zeros.
    bytes: Box<[u8]>,
}

impl Region {
    /// The byte range `[offset, offset + len)`, if it lies inside.
    fn span(&self, id: RegionId, offset: u32, len: u32) -> Result<Range<usize>, CacheError> {
        match offset.checked_add(len) {
            Some(end) if end <= self.size => Ok(offset as usize..end as usize),
            _ => Err(CacheError::OutOfBounds {
                region: id,
                offset,
                len,
                size: self.size,
            }),
        }
    }

    /// Give the region its bytes, zero-filled, for the first write that
    /// stores into them. Out of line, like `zeros`.
    #[cold]
    #[inline(never)]
    fn allocate(&mut self) {
        self.bytes = vec![0; self.size as usize].into_boxed_slice();
    }
}

/// `len` zero bytes, for a read of a never-written region longer than
/// [`ZEROS`]. Out of line, so the read and write paths of a written
/// region stay small enough to inline.
#[cold]
#[inline(never)]
fn zeros(len: usize) -> Vec<u8> {
    vec![0; len]
}

/// Byte equality, a never-written region standing for `size` zeros.
impl PartialEq for Region {
    fn eq(&self, other: &Self) -> bool {
        let all_zero = |bytes: &[u8]| bytes.iter().all(|&b| b == 0);
        self.size == other.size
            && match (self.bytes.is_empty(), other.bytes.is_empty()) {
                (false, false) => self.bytes == other.bytes,
                (true, _) => all_zero(&other.bytes),
                (false, true) => all_zero(&self.bytes),
            }
    }
}

/// One node's replica of the network cache.
#[derive(Debug, Clone)]
pub struct NetworkCache {
    node: u8,
    /// Indexed by region id, and as long as the highest defined id + 1:
    /// only `define_region` grows it, and it defines the last slot.
    regions: Vec<Option<Region>>,
    /// Writes applied (local + remote), for audit.
    applied_writes: u64,
    telemetry: CacheTelemetry,
}

impl NetworkCache {
    /// An empty cache replica owned by `node`.
    pub fn new(node: u8) -> Self {
        NetworkCache {
            node,
            regions: Vec::new(),
            applied_writes: 0,
            telemetry: CacheTelemetry::disabled(),
        }
    }

    /// A copy of this replica re-homed to `node` — a joiner's cache
    /// after its refresh from this sponsor: same regions and bytes,
    /// `node` as the source of its future update packets, telemetry
    /// detached (the new owner registers its own handles).
    pub fn rehomed(&self, node: u8) -> Self {
        NetworkCache {
            node,
            regions: self.regions.clone(),
            applied_writes: 0,
            telemetry: CacheTelemetry::disabled(),
        }
    }

    /// Register this replica's cache-plane counters in `tel`. All
    /// registration happens here; the counting paths are zero-alloc
    /// and work through `&self` (the read protocol never takes `&mut`).
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.telemetry = CacheTelemetry {
            tel: tel.clone(),
            updates: tel.counter(&defs::CACHE_UPDATES_APPLIED, self.node),
            seq_writes: tel.counter(&defs::CACHE_SEQLOCK_WRITES, self.node),
            seq_reads_ok: tel.counter(&defs::CACHE_SEQLOCK_READS_OK, self.node),
            seq_reads_busy: tel.counter(&defs::CACHE_SEQLOCK_READS_BUSY, self.node),
            atomics: tel.counter(&defs::CACHE_ATOMICS_EXECUTED, self.node),
        };
    }

    /// Count a published seqlock record (crate-internal hook).
    pub(crate) fn note_seqlock_write(&self) {
        self.telemetry.tel.inc(self.telemetry.seq_writes);
    }

    /// Count a seqlock read attempt's outcome (crate-internal hook).
    pub(crate) fn note_seqlock_read(&self, ok: bool) {
        let h = if ok {
            self.telemetry.seq_reads_ok
        } else {
            self.telemetry.seq_reads_busy
        };
        self.telemetry.tel.inc(h);
    }

    /// Count an executed D64 atomic (crate-internal hook).
    pub(crate) fn note_atomic(&self) {
        self.telemetry.tel.inc(self.telemetry.atomics);
    }

    /// The owning node id (used as the source of update packets).
    pub fn node(&self) -> u8 {
        self.node
    }

    /// Define a region of `size` bytes, reading as zeros. Its storage
    /// is allocated by the first write that stores into it.
    pub fn define_region(&mut self, id: RegionId, size: u32) -> Result<(), CacheError> {
        let i = id as usize;
        if i >= self.regions.len() {
            self.regions.resize(i + 1, None);
        }
        let slot = &mut self.regions[i];
        if slot.is_some() {
            return Err(CacheError::Exists(id));
        }
        *slot = Some(Region {
            size,
            bytes: Box::default(),
        });
        Ok(())
    }

    /// Defined region ids, ascending.
    pub fn region_ids(&self) -> Vec<RegionId> {
        self.regions
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_some())
            .map(|(i, _)| i as RegionId)
            .collect()
    }

    /// Size of a region.
    pub fn region_size(&self, id: RegionId) -> Result<u32, CacheError> {
        Ok(self.region(id)?.size)
    }

    /// Number of writes applied at this replica.
    pub fn applied_writes(&self) -> u64 {
        self.applied_writes
    }

    /// Bytes held by this replica's written regions. A defined region
    /// holds none until its first write, then its whole size.
    pub fn resident_bytes(&self) -> u64 {
        self.regions
            .iter()
            .flatten()
            .map(|r| r.bytes.len() as u64)
            .sum()
    }

    fn region(&self, id: RegionId) -> Result<&Region, CacheError> {
        self.regions
            .get(id as usize)
            .and_then(Option::as_ref)
            .ok_or(CacheError::NoRegion(id))
    }

    /// Local read — the fast path AmpNet exists for. Borrowed, except a
    /// read of a never-written region longer than 4 KiB.
    pub fn read(&self, id: RegionId, offset: u32, len: u32) -> Result<Cow<'_, [u8]>, CacheError> {
        let region = self.region(id)?;
        let span = region.span(id, offset, len)?;
        Ok(if !region.bytes.is_empty() {
            Cow::Borrowed(&region.bytes[span])
        } else if span.len() <= ZEROS.len() {
            Cow::Borrowed(&ZEROS[..span.len()])
        } else {
            Cow::Owned(zeros(span.len()))
        })
    }

    /// Read one 64-bit word (D64 atomics operate on these).
    pub fn read_u64(&self, id: RegionId, offset: u32) -> Result<u64, CacheError> {
        let region = self.region(id)?;
        let span = region.span(id, offset, 8)?;
        let mut word = [0u8; 8];
        if !region.bytes.is_empty() {
            word.copy_from_slice(&region.bytes[span]);
        }
        Ok(u64::from_be_bytes(word))
    }

    /// Write one 64-bit word locally (no packets; used by the atomic
    /// executor which broadcasts separately).
    pub fn write_u64_local(
        &mut self,
        id: RegionId,
        offset: u32,
        value: u64,
    ) -> Result<(), CacheError> {
        self.apply_raw(id, offset, &value.to_be_bytes())
    }

    /// Inlined into its three callers: on a written region this is a
    /// bounds check, one branch and the copy.
    #[inline]
    fn apply_raw(&mut self, id: RegionId, offset: u32, data: &[u8]) -> Result<(), CacheError> {
        let region = self
            .regions
            .get_mut(id as usize)
            .and_then(Option::as_mut)
            .ok_or(CacheError::NoRegion(id))?;
        let span = region.span(id, offset, data.len() as u32)?;
        self.applied_writes += 1;
        if region.bytes.is_empty() {
            // A zero-length write stores nothing, so it allocates
            // nothing; any other first write allocates the region.
            if data.is_empty() {
                return Ok(());
            }
            region.allocate();
        }
        region.bytes[span].copy_from_slice(data);
        Ok(())
    }

    /// Apply a DMA update received from the ring (write-through: the
    /// replica is updated the instant the packet arrives).
    pub fn apply_dma(&mut self, ctrl: &DmaCtrl, payload: &[u8]) -> Result<(), CacheError> {
        debug_assert_eq!(ctrl.len as usize, payload.len());
        self.apply_raw(ctrl.region, ctrl.offset, payload)
    }

    /// Apply the cache-relevant content of a well-formed MicroPacket
    /// ([`MicroPacket::check`]), if any: a DMA cell's payload. Returns
    /// `Ok(true)` when the packet was a cache update.
    pub fn apply_packet(&mut self, pkt: &MicroPacket) -> Result<bool, CacheError> {
        let Body::Variable { ctrl, data } = &pkt.body else {
            return Ok(false);
        };
        self.apply_dma(ctrl, &data[..ctrl.len as usize])?;
        self.telemetry.tel.inc(self.telemetry.updates);
        Ok(true)
    }

    /// Write locally and produce the broadcast DMA MicroPackets that
    /// propagate the update to every replica, in application order.
    /// Large writes are segmented into 64-byte cells.
    pub fn write(
        &mut self,
        id: RegionId,
        offset: u32,
        data: &[u8],
        channel: u8,
        stream: u8,
    ) -> Result<Vec<MicroPacket>, CacheError> {
        self.apply_raw(id, offset, data)?;
        Ok(Self::segment_packets(
            self.node, BROADCAST, id, offset, data, channel, stream,
        ))
    }

    /// Build the DMA packets for a write without applying it (used by
    /// the refresh protocol to stream a snapshot to a joiner).
    pub fn segment_packets(
        src: u8,
        dst: u8,
        id: RegionId,
        offset: u32,
        data: &[u8],
        channel: u8,
        stream: u8,
    ) -> Vec<MicroPacket> {
        let mut out = Vec::with_capacity(data.len().div_ceil(MAX_DMA_PAYLOAD));
        let mut off = offset;
        for chunk in data.chunks(MAX_DMA_PAYLOAD) {
            let ctrl = DmaCtrl {
                channel,
                region: id,
                offset: off,
                len: 0, // set by build::dma
            };
            #[expect(
                clippy::expect_used,
                reason = "chunk length is bounded 1..=64 by the split loop above"
            )]
            out.push(build::dma(src, dst, stream, ctrl, chunk).expect("chunk within 1..=64"));
            off += chunk.len() as u32;
        }
        out
    }

    /// CRC-32 of a whole region — the diagnostics audit primitive
    /// ("built-in diagnostics certify new configuration", slide 18).
    pub fn region_crc(&self, id: RegionId) -> Result<u32, CacheError> {
        Ok(crc32(&self.read(id, 0, self.region_size(id)?)?))
    }

    /// Do two replicas define the same regions and agree byte-for-byte
    /// on each (a never-written region reading as zeros)? Compares the
    /// storage itself; [`Self::region_crc`] is there for callers that
    /// want the number. Each table ends at its highest defined id, so
    /// tables of different lengths define different regions: plain
    /// equality is the comparison with the shorter one padded with
    /// undefined slots.
    pub fn converged_with(&self, other: &NetworkCache) -> bool {
        self.regions == other.regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_with_region(node: u8, id: RegionId, size: u32) -> NetworkCache {
        let mut c = NetworkCache::new(node);
        c.define_region(id, size).unwrap();
        c
    }

    #[test]
    fn define_read_write_roundtrip() {
        let mut c = cache_with_region(1, 7, 1024);
        assert_eq!(c.region_size(7).unwrap(), 1024);
        let pkts = c.write(7, 100, b"hello world", 0, 0).unwrap();
        assert_eq!(pkts.len(), 1);
        assert_eq!(&*c.read(7, 100, 11).unwrap(), b"hello world");
    }

    #[test]
    fn region_allocates_on_first_stored_byte() {
        let mut c = cache_with_region(1, 7, 8192);
        assert_eq!(c.resident_bytes(), 0);
        // Never written: zeros, borrowed up to the zero block's length.
        assert!(matches!(c.read(7, 0, 4096).unwrap(), Cow::Borrowed(b) if b == [0; 4096]));
        assert!(matches!(c.read(7, 0, 8192).unwrap(), Cow::Owned(b) if b == [0; 8192]));
        assert_eq!(c.read_u64(7, 8184).unwrap(), 0);
        // Rejected and zero-length writes store nothing.
        assert!(c.write(7, 8190, b"xyz", 0, 0).is_err());
        assert!(c.write(8, 0, b"x", 0, 0).is_err());
        assert!(c.write(7, 8192, b"", 0, 0).unwrap().is_empty());
        assert_eq!(c.resident_bytes(), 0);
        assert_eq!(c.applied_writes(), 1, "the zero-length write still counts");
        c.write_u64_local(7, 8, 0x0102).unwrap();
        assert_eq!(c.resident_bytes(), 8192);
        assert!(matches!(c.read(7, 0, 8192).unwrap(), Cow::Borrowed(_)));
        assert_eq!(c.read_u64(7, 8).unwrap(), 0x0102);
    }

    #[test]
    fn never_written_converges_with_all_zero_write() {
        let mut written = cache_with_region(0, 3, 5000);
        let untouched = cache_with_region(1, 3, 5000);
        written.write(3, 0, &[0; 5000], 0, 0).unwrap();
        assert_eq!(written.resident_bytes(), 5000);
        assert_eq!(untouched.resident_bytes(), 0);
        assert!(written.converged_with(&untouched));
        assert!(untouched.converged_with(&written));
        assert_eq!(written.region_crc(3), untouched.region_crc(3));
        assert_eq!(written.region_crc(3).unwrap(), crc32(&[0; 5000]));
        // A joiner cloned from either holds what its sponsor holds.
        assert_eq!(untouched.rehomed(9).resident_bytes(), 0);
        assert_eq!(written.rehomed(9).resident_bytes(), 5000);
        written.write(3, 4999, &[1], 0, 0).unwrap();
        assert!(!written.converged_with(&untouched));
        assert!(!untouched.converged_with(&written));
    }

    #[test]
    fn double_define_rejected() {
        let mut c = cache_with_region(1, 7, 64);
        assert_eq!(c.define_region(7, 64), Err(CacheError::Exists(7)));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut c = cache_with_region(1, 0, 64);
        assert!(matches!(
            c.read(0, 60, 8),
            Err(CacheError::OutOfBounds { .. })
        ));
        assert!(matches!(
            c.write(0, 64, b"x", 0, 0),
            Err(CacheError::OutOfBounds { .. })
        ));
        assert!(c.read(1, 0, 1).is_err());
        // Offset overflow must not panic.
        assert!(c.read(0, u32::MAX, 2).is_err());
    }

    #[test]
    fn large_write_segments_into_cells() {
        let mut c = cache_with_region(3, 0, 4096);
        let data = vec![0xABu8; 300];
        let pkts = c.write(0, 0, &data, 2, 1).unwrap();
        assert_eq!(pkts.len(), 5, "300 bytes = 4 full + 1 partial cell");
        assert!(pkts.iter().all(|p| p.ctrl.is_broadcast()));
        assert!(pkts.iter().all(|p| p.ctrl.src == 3));
        // Offsets are contiguous.
        let offsets: Vec<u32> = pkts
            .iter()
            .map(|p| match &p.body {
                Body::Variable { ctrl, .. } => ctrl.offset,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(offsets, vec![0, 64, 128, 192, 256]);
    }

    #[test]
    fn replicas_converge_via_packets() {
        let mut writer = cache_with_region(0, 5, 512);
        let mut replica = cache_with_region(9, 5, 512);
        let pkts = writer.write(5, 17, b"the network is a computer", 0, 0).unwrap();
        for p in &pkts {
            assert!(replica.apply_packet(p).unwrap());
        }
        assert!(writer.converged_with(&replica));
        assert_eq!(
            &*replica.read(5, 17, 25).unwrap(),
            b"the network is a computer"
        );
    }

    #[test]
    fn non_dma_packets_ignored() {
        let mut c = cache_with_region(1, 0, 64);
        let p = build::data(0, 1, 0, [1; 8]);
        assert!(!c.apply_packet(&p).unwrap());
        assert_eq!(c.applied_writes(), 0);
    }

    #[test]
    fn u64_word_access() {
        let mut c = cache_with_region(1, 2, 128);
        c.write_u64_local(2, 8, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        assert_eq!(c.read_u64(2, 8).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn crc_detects_divergence() {
        let mut a = cache_with_region(0, 1, 256);
        let b = cache_with_region(1, 1, 256);
        assert!(a.converged_with(&b));
        a.write(1, 0, b"x", 0, 0).unwrap();
        assert!(!a.converged_with(&b));
        assert_ne!(a.region_crc(1).unwrap(), b.region_crc(1).unwrap());
    }

    #[test]
    fn replicas_with_different_region_sets_do_not_converge() {
        // Every region both define is identical (all zeros); only the
        // set differs, in either direction.
        let a = cache_with_region(0, 1, 256);
        let mut b = cache_with_region(1, 1, 256);
        assert!(a.converged_with(&b));
        b.define_region(2, 64).unwrap();
        assert!(!a.converged_with(&b));
        assert!(!b.converged_with(&a));
        // Same ids, different sizes: not converged either.
        let mut c = cache_with_region(2, 1, 256);
        c.define_region(2, 128).unwrap();
        assert!(!b.converged_with(&c));
    }

    #[test]
    fn table_holds_one_slot_per_id_up_to_the_highest_defined() {
        let mut c = NetworkCache::new(0);
        assert_eq!(c.regions.len(), 0, "a new replica holds no slots");
        c.define_region(0, 64).unwrap();
        assert_eq!(c.regions.len(), 1);
        let mut only_zero = c.clone();
        c.define_region(9, 64).unwrap();
        assert_eq!(c.regions.len(), 10);
        assert_eq!(c.rehomed(3).regions.len(), 10);
        // An id past the end of the table is not defined.
        assert_eq!(only_zero.read(9, 0, 1), Err(CacheError::NoRegion(9)));
        assert_eq!(only_zero.region_ids(), vec![0]);
        // Tables of different lengths compare as if the shorter one
        // were padded with undefined slots.
        assert!(!only_zero.converged_with(&c));
        assert!(!c.converged_with(&only_zero));
        only_zero.define_region(9, 64).unwrap();
        assert!(only_zero.converged_with(&c));
        assert!(c.converged_with(&only_zero));
    }

    #[test]
    fn region_ids_sorted() {
        let mut c = NetworkCache::new(0);
        c.define_region(9, 8).unwrap();
        c.define_region(2, 8).unwrap();
        assert_eq!(c.region_ids(), vec![2, 9]);
    }
}
