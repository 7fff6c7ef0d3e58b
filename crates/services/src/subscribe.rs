//! AmpSubscribe — topic pub/sub over the network cache (slide 12).
//!
//! A topic is a ring of seqlock-guarded record slots in a cache
//! region plus a head counter. Publishing writes the next slot and
//! bumps the head; because the whole structure replicates, any node
//! subscribes by *polling its local replica* — no subscription state
//! at the publisher at all. Slow subscribers that fall more than a
//! ring behind observe an explicit `Lagged` gap (the slots were
//! overwritten), never torn data.

use ampnet_cache::seqlock_msg::{self, ReadOutcome, RecordLayout};
use ampnet_cache::{CacheError, NetworkCache, RegionId};
use ampnet_packet::MicroPacket;

/// Topic geometry within a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopicLayout {
    /// Region holding the topic.
    pub region: RegionId,
    /// Byte offset of the topic header (head counter record).
    pub base: u32,
    /// Number of slots in the ring.
    pub slots: u32,
    /// Payload bytes per slot.
    pub slot_len: u32,
}

impl TopicLayout {
    /// Head counter: a seqlock record holding the u64 publish count.
    ///
    /// Public so external drivers (e.g. the `ampnet-load` workload
    /// engine) can publish through a cluster's replication path while
    /// reusing the exact topic geometry subscribers poll.
    pub fn head_record(&self) -> RecordLayout {
        RecordLayout {
            region: self.region,
            offset: self.base,
            data_len: 8,
        }
    }

    /// Slot record for publish index `index` (the ring wraps every
    /// [`TopicLayout::slots`] records).
    pub fn slot_record(&self, index: u64) -> RecordLayout {
        let slot = (index % self.slots as u64) as u32;
        let slot_footprint = 8 + self.slot_len + 8;
        RecordLayout {
            region: self.region,
            offset: self.base + 24 + slot * slot_footprint,
            data_len: self.slot_len,
        }
    }

    /// Total region bytes the topic occupies.
    pub fn footprint(&self) -> u32 {
        24 + self.slots * (8 + self.slot_len + 8)
    }
}

/// Publisher handle (one writer per topic, AmpNet's single-producer
/// discipline — multi-producer topics coordinate with a network
/// semaphore).
#[derive(Debug)]
pub struct Publisher {
    layout: TopicLayout,
    published: u64,
}

impl Publisher {
    /// Create a publisher; the topic starts empty.
    pub fn new(layout: TopicLayout) -> Self {
        Publisher {
            layout,
            published: 0,
        }
    }

    /// Number of records published.
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Publish one record (padded/truncated to the slot length).
    /// Returns the cache-update packets to broadcast.
    pub fn publish(
        &mut self,
        cache: &mut NetworkCache,
        payload: &[u8],
    ) -> Result<Vec<MicroPacket>, CacheError> {
        assert!(
            payload.len() as u32 <= self.layout.slot_len,
            "record exceeds slot length"
        );
        let mut slot_data = vec![0u8; self.layout.slot_len as usize];
        slot_data[..payload.len()].copy_from_slice(payload);
        // Write the slot first, then advance the head: a subscriber
        // that sees head = n can always read slots < n consistently.
        let mut pkts = seqlock_msg::write_record(
            cache,
            self.layout.slot_record(self.published),
            &slot_data,
            13,
            2,
        )?;
        self.published += 1;
        pkts.extend(seqlock_msg::write_record(
            cache,
            self.layout.head_record(),
            &self.published.to_be_bytes(),
            13,
            2,
        )?);
        Ok(pkts)
    }
}

/// What a poll returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PollOutcome {
    /// New records, in publish order.
    Records(Vec<Vec<u8>>),
    /// Fell more than one ring behind: `skipped` records were
    /// overwritten before being read; the cursor jumped forward.
    Lagged {
        /// Records lost to overwrite.
        skipped: u64,
        /// Records recovered after the jump.
        records: Vec<Vec<u8>>,
    },
    /// Nothing new (or a write was racing; retry next poll).
    Empty,
}

/// Subscriber: polls the local replica.
#[derive(Debug)]
pub struct Subscriber {
    layout: TopicLayout,
    cursor: u64,
    received: u64,
    lagged: u64,
}

impl Subscriber {
    /// Subscribe from the current beginning of the topic.
    pub fn new(layout: TopicLayout) -> Self {
        Subscriber {
            layout,
            cursor: 0,
            received: 0,
            lagged: 0,
        }
    }

    /// Records delivered so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Records lost to lag so far.
    pub fn lagged(&self) -> u64 {
        self.lagged
    }

    /// Poll the local replica for new records.
    pub fn poll(&mut self, cache: &NetworkCache) -> Result<PollOutcome, CacheError> {
        let head = match seqlock_msg::try_read(cache, self.layout.head_record())? {
            ReadOutcome::Ok { data, .. } => {
                u64::from_be_bytes(data[..].try_into().expect("8 bytes"))
            }
            ReadOutcome::Busy => return Ok(PollOutcome::Empty),
        };
        if head <= self.cursor {
            return Ok(PollOutcome::Empty);
        }
        // Readable window: the last `slots` records.
        let window_start = head.saturating_sub(self.layout.slots as u64);
        let mut skipped = 0;
        if self.cursor < window_start {
            skipped = window_start - self.cursor;
            self.cursor = window_start;
        }
        let mut records = vec![];
        while self.cursor < head {
            match seqlock_msg::try_read(cache, self.layout.slot_record(self.cursor))? {
                ReadOutcome::Ok { data, .. } => {
                    records.push(data.into_owned());
                    self.cursor += 1;
                }
                ReadOutcome::Busy => break, // racing write; next poll
            }
        }
        self.received += records.len() as u64;
        self.lagged += skipped;
        if skipped > 0 {
            Ok(PollOutcome::Lagged { skipped, records })
        } else if records.is_empty() {
            Ok(PollOutcome::Empty)
        } else {
            Ok(PollOutcome::Records(records))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(slots: u32) -> (NetworkCache, NetworkCache, TopicLayout) {
        let layout = TopicLayout {
            region: 2,
            base: 0,
            slots,
            slot_len: 32,
        };
        let mut publisher_cache = NetworkCache::new(0);
        publisher_cache.define_region(2, layout.footprint()).unwrap();
        let mut replica = NetworkCache::new(5);
        replica.define_region(2, layout.footprint()).unwrap();
        (publisher_cache, replica, layout)
    }

    fn replicate(pkts: &[MicroPacket], replica: &mut NetworkCache) {
        for p in pkts {
            replica.apply_packet(p).unwrap();
        }
    }

    #[test]
    fn publish_then_poll() {
        let (mut pc, mut replica, layout) = setup(8);
        let mut publisher = Publisher::new(layout);
        let mut sub = Subscriber::new(layout);
        let pkts = publisher.publish(&mut pc, b"event-1").unwrap();
        replicate(&pkts, &mut replica);
        match sub.poll(&replica).unwrap() {
            PollOutcome::Records(rs) => {
                assert_eq!(rs.len(), 1);
                assert_eq!(&rs[0][..7], b"event-1");
            }
            other => panic!("expected records, got {other:?}"),
        }
        assert_eq!(sub.poll(&replica).unwrap(), PollOutcome::Empty);
    }

    #[test]
    fn records_arrive_in_order() {
        let (mut pc, mut replica, layout) = setup(16);
        let mut publisher = Publisher::new(layout);
        let mut sub = Subscriber::new(layout);
        for i in 0..10u8 {
            let pkts = publisher.publish(&mut pc, &[i; 4]).unwrap();
            replicate(&pkts, &mut replica);
        }
        let PollOutcome::Records(rs) = sub.poll(&replica).unwrap() else {
            panic!("expected records");
        };
        assert_eq!(rs.len(), 10);
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(r[0], i as u8);
        }
        assert_eq!(sub.received(), 10);
    }

    #[test]
    fn slow_subscriber_sees_lag_not_corruption() {
        let (mut pc, mut replica, layout) = setup(4);
        let mut publisher = Publisher::new(layout);
        let mut sub = Subscriber::new(layout);
        // Publish 10 into a 4-slot ring before the first poll.
        for i in 0..10u8 {
            let pkts = publisher.publish(&mut pc, &[i; 4]).unwrap();
            replicate(&pkts, &mut replica);
        }
        match sub.poll(&replica).unwrap() {
            PollOutcome::Lagged { skipped, records } => {
                assert_eq!(skipped, 6, "10 published, 4 retained");
                assert_eq!(records.len(), 4);
                assert_eq!(records[0][0], 6, "oldest surviving record");
                assert_eq!(records[3][0], 9);
            }
            other => panic!("expected lag, got {other:?}"),
        }
        assert_eq!(sub.lagged(), 6);
    }

    #[test]
    fn partial_replication_reads_cleanly() {
        // Replica has the slot write but not yet the head bump: the
        // subscriber simply doesn't see the record yet.
        let (mut pc, mut replica, layout) = setup(8);
        let mut publisher = Publisher::new(layout);
        let mut sub = Subscriber::new(layout);
        let pkts = publisher.publish(&mut pc, b"half").unwrap();
        // The head-record packets are the last 3 (counter, data, counter
        // each one packet for 8-byte records).
        let cut = pkts.len() - 3;
        replicate(&pkts[..cut], &mut replica);
        assert_eq!(sub.poll(&replica).unwrap(), PollOutcome::Empty);
        replicate(&pkts[cut..], &mut replica);
        assert!(matches!(
            sub.poll(&replica).unwrap(),
            PollOutcome::Records(_)
        ));
    }

    #[test]
    fn two_subscribers_independent_cursors() {
        let (mut pc, mut replica, layout) = setup(8);
        let mut publisher = Publisher::new(layout);
        let mut s1 = Subscriber::new(layout);
        let mut s2 = Subscriber::new(layout);
        let pkts = publisher.publish(&mut pc, b"x").unwrap();
        replicate(&pkts, &mut replica);
        assert!(matches!(s1.poll(&replica).unwrap(), PollOutcome::Records(_)));
        let pkts = publisher.publish(&mut pc, b"y").unwrap();
        replicate(&pkts, &mut replica);
        assert!(matches!(s1.poll(&replica).unwrap(), PollOutcome::Records(_)));
        // s2 sees both at once.
        let PollOutcome::Records(rs) = s2.poll(&replica).unwrap() else {
            panic!();
        };
        assert_eq!(rs.len(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds slot length")]
    fn oversized_record_rejected() {
        let (mut pc, _, layout) = setup(4);
        let mut publisher = Publisher::new(layout);
        let _ = publisher.publish(&mut pc, &[0; 33]);
    }
}
