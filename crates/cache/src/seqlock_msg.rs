//! Message-level cache consistency — the slide-9 "Lamport counters".
//!
//! > Two counters, at the start and end of every message.
//! > To read: read first counter, read last counter; if they agree,
//! > read data, else wait and go to start. Read first counter; if
//! > changed go to start. To write: just write.
//!
//! A *message* (record) in a cache region is laid out as
//!
//! ```text
//! [ counter₁ : u64 ][ data : len bytes ][ counter₂ : u64 ]
//! ```
//!
//! The writer bumps `counter₁`, streams the data, then writes
//! `counter₂ = counter₁`. Replicas apply those updates in order (ring
//! FIFO), so a reader that sees `counter₁ == counter₂` and an
//! unchanged `counter₁` after reading the data has a consistent
//! snapshot, no matter how the update packets interleave with its
//! reads. Writers never block: "to write — just write".

use crate::store::{CacheError, NetworkCache, RegionId};
use ampnet_packet::MicroPacket;
use std::borrow::Cow;

/// Layout of a seqlock-guarded record within a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordLayout {
    /// Region holding the record.
    pub region: RegionId,
    /// Byte offset of `counter₁`.
    pub offset: u32,
    /// Payload bytes between the counters.
    pub data_len: u32,
}

impl RecordLayout {
    /// Total footprint: two u64 counters plus the data (saturating).
    pub fn footprint(&self) -> u32 {
        self.data_len.saturating_add(16)
    }

    /// Byte offset of the payload (just past `counter₁`). Public so the
    /// model checker can address the record's pieces individually.
    pub fn data_offset(&self) -> u32 {
        self.offset + 8
    }

    /// Byte offset of `counter₂` (just past the payload).
    pub fn counter2_offset(&self) -> u32 {
        self.offset + 8 + self.data_len
    }

    /// Whether the whole record lies inside its region of `cache`, the
    /// check [`write_record`], [`try_read`] and [`read_unguarded`] make
    /// before they touch a byte; past it no offset above overflows.
    pub fn check(&self, cache: &NetworkCache) -> Result<(), CacheError> {
        let size = cache.region_size(self.region)?;
        let (region, offset, len) = (self.region, self.offset, self.footprint());
        let fits = u64::from(offset) + u64::from(self.data_len) + 16 <= u64::from(size);
        fits.then_some(()).ok_or(CacheError::OutOfBounds { region, offset, len, size })
    }
}

/// One read attempt's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome<'a> {
    /// Consistent snapshot, with the generation that produced it.
    Ok {
        /// Record payload, lent by the replica (a caller that keeps it
        /// takes `into_owned`).
        data: Cow<'a, [u8]>,
        /// Writer generation (value of both counters).
        generation: u64,
    },
    /// A write was in progress (or raced the read); try again.
    Busy,
}

/// Write a record: bump counter₁, write data, write counter₂ — locally
/// applied and returned as the broadcast packet sequence *in that
/// order* (order is what makes remote replicas consistent). A record
/// outside its region, or `data` not its exact size, writes nothing.
pub fn write_record(
    cache: &mut NetworkCache,
    layout: RecordLayout,
    data: &[u8],
    channel: u8,
    stream: u8,
) -> Result<Vec<MicroPacket>, CacheError> {
    layout.check(cache)?;
    if data.len() != layout.data_len as usize {
        return Err(CacheError::RecordLength { data_len: layout.data_len, got: data.len() });
    }
    let generation = cache.read_u64(layout.region, layout.offset)? + 1;
    let mut pkts = Vec::new();
    pkts.extend(cache.write(
        layout.region,
        layout.offset,
        &generation.to_be_bytes(),
        channel,
        stream,
    )?);
    pkts.extend(cache.write(layout.region, layout.data_offset(), data, channel, stream)?);
    pkts.extend(cache.write(
        layout.region,
        layout.counter2_offset(),
        &generation.to_be_bytes(),
        channel,
        stream,
    )?);
    cache.note_seqlock_write();
    Ok(pkts)
}

/// One attempt of the slide-9 read protocol against a local replica.
pub fn try_read(
    cache: &NetworkCache,
    layout: RecordLayout,
) -> Result<ReadOutcome<'_>, CacheError> {
    layout.check(cache)?;
    let c1 = cache.read_u64(layout.region, layout.offset)?;
    let c2 = cache.read_u64(layout.region, layout.counter2_offset())?;
    if c1 != c2 {
        cache.note_seqlock_read(false);
        return Ok(ReadOutcome::Busy);
    }
    let data = cache.read(layout.region, layout.data_offset(), layout.data_len)?;
    let c1_again = cache.read_u64(layout.region, layout.offset)?;
    if c1_again != c1 {
        cache.note_seqlock_read(false);
        return Ok(ReadOutcome::Busy);
    }
    cache.note_seqlock_read(true);
    Ok(ReadOutcome::Ok {
        data,
        generation: c1,
    })
}

/// The ablation-A2 read: ignore the counters entirely. With concurrent
/// writers this can return torn data — that is the point of measuring
/// it.
pub fn read_unguarded(
    cache: &NetworkCache,
    layout: RecordLayout,
) -> Result<Vec<u8>, CacheError> {
    layout.check(cache)?;
    Ok(cache
        .read(layout.region, layout.data_offset(), layout.data_len)?
        .into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (NetworkCache, RecordLayout) {
        let mut c = NetworkCache::new(0);
        c.define_region(1, 4096).unwrap();
        let layout = RecordLayout {
            region: 1,
            offset: 64,
            data_len: 100,
        };
        (c, layout)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (mut c, layout) = setup();
        let data = vec![7u8; 100];
        write_record(&mut c, layout, &data, 0, 0).unwrap();
        assert_eq!(
            try_read(&c, layout).unwrap(),
            ReadOutcome::Ok {
                data: data.into(),
                generation: 1
            }
        );
    }

    #[test]
    fn generations_increment() {
        let (mut c, layout) = setup();
        for expected in 1..=5u64 {
            write_record(&mut c, layout, &[expected as u8; 100], 0, 0).unwrap();
            match try_read(&c, layout).unwrap() {
                ReadOutcome::Ok { generation, .. } => assert_eq!(generation, expected),
                ReadOutcome::Busy => panic!("quiescent replica read busy"),
            }
        }
    }

    #[test]
    fn partial_application_reads_busy() {
        // Simulate a replica that has applied counter₁ and some data
        // packets but not yet counter₂.
        let (mut writer, layout) = setup();
        let mut replica = NetworkCache::new(9);
        replica.define_region(1, 4096).unwrap();
        // Establish generation 1 everywhere.
        let pkts = write_record(&mut writer, layout, &[1u8; 100], 0, 0).unwrap();
        for p in &pkts {
            replica.apply_packet(p).unwrap();
        }
        // Generation 2 arrives partially: all but the last packet
        // (counter₂).
        let pkts = write_record(&mut writer, layout, &[2u8; 100], 0, 0).unwrap();
        for p in &pkts[..pkts.len() - 1] {
            replica.apply_packet(p).unwrap();
        }
        assert_eq!(try_read(&replica, layout).unwrap(), ReadOutcome::Busy);
        // The unguarded read happily returns the torn mix.
        let torn = read_unguarded(&replica, layout).unwrap();
        assert!(torn.iter().all(|&b| b == 2), "data cells already applied");
        // Apply counter₂: consistent again.
        replica.apply_packet(&pkts[pkts.len() - 1]).unwrap();
        match try_read(&replica, layout).unwrap() {
            ReadOutcome::Ok { data, generation } => {
                assert_eq!(data, vec![2u8; 100]);
                assert_eq!(generation, 2);
            }
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn torn_data_detected_mid_stream() {
        // Stop applying inside the data packets: counters disagree.
        let (mut writer, layout) = setup();
        let mut replica = NetworkCache::new(9);
        replica.define_region(1, 4096).unwrap();
        let gen1 = write_record(&mut writer, layout, &[0xAA; 100], 0, 0).unwrap();
        for p in &gen1 {
            replica.apply_packet(p).unwrap();
        }
        let gen2 = write_record(&mut writer, layout, &[0xBB; 100], 0, 0).unwrap();
        // counter₁ + first data cell only.
        replica.apply_packet(&gen2[0]).unwrap();
        replica.apply_packet(&gen2[1]).unwrap();
        assert_eq!(try_read(&replica, layout).unwrap(), ReadOutcome::Busy);
        let torn = read_unguarded(&replica, layout).unwrap();
        let mixed = torn.contains(&0xAA) && torn.contains(&0xBB);
        assert!(mixed, "unguarded read should expose the torn record");
    }

    #[test]
    fn footprint_and_layout_math() {
        let l = RecordLayout {
            region: 0,
            offset: 32,
            data_len: 48,
        };
        assert_eq!(l.footprint(), 64);
        assert_eq!(l.data_offset(), 40);
        assert_eq!(l.counter2_offset(), 88);
    }

    #[test]
    fn a_write_that_does_not_fit_is_refused_and_writes_nothing() {
        let (mut c, layout) = setup();
        let short = write_record(&mut c, layout, &[0u8; 10], 0, 0);
        assert_eq!(
            short,
            Err(CacheError::RecordLength {
                data_len: 100,
                got: 10
            })
        );
        let past_end = RecordLayout {
            offset: 4000,
            ..layout
        };
        let refused = CacheError::OutOfBounds {
            region: 1,
            offset: 4000,
            len: 116,
            size: 4096,
        };
        assert_eq!(
            write_record(&mut c, past_end, &[1; 100], 0, 0),
            Err(refused.clone())
        );
        assert_eq!(try_read(&c, past_end), Err(refused.clone()));
        assert_eq!(read_unguarded(&c, past_end), Err(refused));
        let wrapping = RecordLayout {
            offset: u32::MAX - 8,
            ..layout
        };
        assert!(matches!(
            try_read(&c, wrapping),
            Err(CacheError::OutOfBounds { .. })
        ));
        assert_eq!(c.applied_writes(), 0);
        assert_eq!(c.resident_bytes(), 0);
    }
}
