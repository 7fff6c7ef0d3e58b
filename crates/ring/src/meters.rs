//! The ring's two latency meters, one implementation for both drivers:
//! **access wait** (`ring_access_ns`), from an own frame's enqueue on
//! one of its node's streams to its insertion — urgent frames bypass the
//! streams and are not metered — and **tour** (`ring_tour_ns`), from an
//! own broadcast's insertion to its strip at the source. The driver
//! keeps the insertion instant with what it already holds per broadcast
//! in flight and hands it back at the strip.

use crate::stream::StreamId;
use ampnet_sim::SimTime;
use ampnet_telemetry::{defs, HistHandle, Telemetry, GLOBAL};
use std::collections::VecDeque;

/// Access-wait and tour meters over a ring whose nodes have
/// `n_streams` streams each. Each sample is recorded into a shared
/// [`Telemetry`] registry and returned, for a driver that keeps its
/// own histograms.
#[derive(Debug)]
pub struct RingMeters {
    n_streams: usize,
    /// Enqueue instants, FIFO per (node, stream), at
    /// `node * n_streams + stream`; grown by the first enqueue that
    /// reaches past its end, so building the meters touches no memory.
    enqueued: Vec<VecDeque<SimTime>>,
    tel: Telemetry,
    tour_h: HistHandle,
    access_h: HistHandle,
}

impl RingMeters {
    /// Meters for nodes with `n_streams` streams each, recording
    /// nowhere until [`RingMeters::instrument`].
    pub fn new(n_streams: usize) -> Self {
        RingMeters {
            n_streams,
            enqueued: Vec::new(),
            tel: Telemetry::disabled(),
            tour_h: HistHandle::NONE,
            access_h: HistHandle::NONE,
        }
    }

    /// Record into `tel` from now on (registers `ring_tour_ns` and
    /// `ring_access_ns` under the global label).
    pub fn instrument(&mut self, tel: &Telemetry) {
        self.tour_h = tel.histogram(&defs::RING_TOUR_NS, GLOBAL);
        self.access_h = tel.histogram(&defs::RING_ACCESS_NS, GLOBAL);
        self.tel = tel.clone();
    }

    /// An own frame was queued on `stream` at `node`.
    #[inline]
    pub fn enqueued(&mut self, node: usize, stream: StreamId, now: SimTime) {
        let at = node * self.n_streams + stream as usize;
        if at >= self.enqueued.len() {
            self.enqueued.resize_with(at + 1, VecDeque::new);
        }
        self.enqueued[at].push_back(now);
    }

    /// `node`'s queued frames were discarded (its NIC crashed): forget
    /// their enqueue instants, so its next insertions are not metered
    /// against them.
    pub fn forget(&mut self, node: usize) {
        let (from, to) = (node * self.n_streams, (node + 1) * self.n_streams);
        for queued in self.enqueued.iter_mut().take(to).skip(from) {
            queued.clear();
        }
    }

    /// `node` inserted an own frame, taken from `stream` (`None` for an
    /// urgent frame). Records and returns its access wait in ns.
    #[inline]
    pub fn inserted(&mut self, node: usize, stream: Option<StreamId>, now: SimTime) -> Option<u64> {
        let at = node * self.n_streams + stream? as usize;
        let queued = self.enqueued.get_mut(at)?.pop_front()?;
        let wait = (now - queued).as_nanos();
        self.tel.record(self.access_h, wait);
        Some(wait)
    }

    /// An own broadcast inserted at `inserted_at` was stripped at `now`.
    /// Records and returns its tour in ns.
    #[inline]
    pub fn toured(&mut self, inserted_at: SimTime, now: SimTime) -> u64 {
        let tour = (now - inserted_at).as_nanos();
        self.tel.record(self.tour_h, tour);
        tour
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampnet_telemetry::SnapValue;

    fn hist(tel: &Telemetry, name: &str) -> (u64, u128) {
        match tel.snapshot().get(name, None).map(|e| e.value) {
            Some(SnapValue::Hist { count, sum, .. }) => (count, sum),
            v => panic!("{name}: expected a histogram, got {v:?}"),
        }
    }

    #[test]
    fn access_waits_are_fifo_per_stream() {
        let mut m = RingMeters::new(2);
        let tel = Telemetry::new(1);
        m.instrument(&tel);
        m.enqueued(1, 0, SimTime(10));
        m.enqueued(1, 1, SimTime(20));
        m.enqueued(1, 0, SimTime(30));
        assert_eq!(m.inserted(1, Some(1), SimTime(100)), Some(80));
        assert_eq!(m.inserted(1, Some(0), SimTime(100)), Some(90));
        assert_eq!(m.inserted(1, Some(0), SimTime(130)), Some(100));
        assert_eq!(m.inserted(1, None, SimTime(130)), None, "urgent: unmetered");
        assert_eq!(m.inserted(0, Some(0), SimTime(130)), None, "nothing queued");
        assert_eq!(hist(&tel, "ring_access_ns"), (3, 270));
    }

    #[test]
    fn a_forgotten_node_waits_from_its_next_enqueue() {
        let mut m = RingMeters::new(2);
        m.enqueued(0, 0, SimTime(5));
        m.enqueued(1, 0, SimTime(10));
        m.enqueued(1, 1, SimTime(20));
        m.forget(1);
        m.forget(7); // never enqueued: nothing to forget
        assert_eq!(m.inserted(1, Some(0), SimTime(100)), None);
        assert_eq!(m.inserted(1, Some(1), SimTime(100)), None);
        m.enqueued(1, 0, SimTime(90));
        assert_eq!(m.inserted(1, Some(0), SimTime(100)), Some(10));
        assert_eq!(m.inserted(0, Some(0), SimTime(100)), Some(95), "other nodes keep theirs");
    }

    #[test]
    fn tours_record_once_instrumented() {
        let mut m = RingMeters::new(1);
        assert_eq!(m.toured(SimTime(5), SimTime(50)), 45);
        let tel = Telemetry::new(1);
        m.instrument(&tel);
        assert_eq!(m.toured(SimTime(100), SimTime(160)), 60);
        assert_eq!(hist(&tel, "ring_tour_ns"), (1, 60));
    }
}
