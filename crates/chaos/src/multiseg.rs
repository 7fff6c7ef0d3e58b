//! Cross-segment chaos: timed fault storms on a [`MultiSegment`]
//! network, runnable under any [`ParallelMode`] with bit-identical
//! results.
//!
//! The single-segment [`crate::Scenario`] engine drives one `Cluster`;
//! this module is its multi-segment sibling for the sharded-PDES
//! engine. A [`MultiSegScenario`] scripts per-segment faults in the
//! single-segment engine's own vocabulary (any [`FaultOp`]: crashes,
//! rejoins, fiber cuts, switch failures, repairs, error bursts) plus
//! globally-addressed sends, all at fixed simulated offsets, and
//! replays the identical schedule under
//! whichever execution mode the caller picks. Because the schedule,
//! the seeds and the barrier-exchange order are all deterministic, the
//! resulting [`MultiSegReport`] — digest, delivery ledger, merged
//! metrics — must not depend on the mode; `tests/parallel_equivalence.rs`
//! holds the engine to that.

use crate::engine::apply_fault_schedule;
use crate::scenario::{FaultEvent, FaultOp};
use ampnet_core::{
    ClusterConfig, GlobalAddr, Lookahead, MultiSegment, ParallelMode, SimDuration, SimTime,
};

/// A timed globally-addressed send.
#[derive(Debug, Clone, PartialEq)]
struct TimedSend {
    offset: SimDuration,
    src: GlobalAddr,
    dst: GlobalAddr,
    payload: Vec<u8>,
}

/// Outcome of one [`MultiSegScenario::run`]: everything the
/// equivalence tests compare across [`ParallelMode`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSegReport {
    /// Network digest (per-segment trace digests + unroutable count).
    pub digest: u64,
    /// Every delivered datagram as `(dst, src, payload)`, drained in
    /// `(segment, node, FIFO)` order.
    pub delivered: Vec<(GlobalAddr, GlobalAddr, Vec<u8>)>,
    /// Datagrams that found no usable route.
    pub unroutable: u64,
    /// Merged per-shard metrics, rendered to JSON (byte-comparable).
    pub metrics_json: String,
    /// Total events processed across all shards.
    pub events_processed: u64,
}

/// A deterministic cross-segment fault scenario.
///
/// ```
/// use ampnet_chaos::{multiseg::MultiSegScenario, FaultOp};
/// use ampnet_core::{ClusterConfig, GlobalAddr, ParallelMode, SimDuration};
///
/// let ga = |segment, node| GlobalAddr { segment, node };
/// let mut sc = MultiSegScenario::new(
///     (0..2).map(|s| ClusterConfig::small(4).with_seed(40 + s)).collect(),
/// );
/// sc.bridge(ga(0, 3), ga(1, 0), SimDuration::from_micros(5));
/// sc.send_at(SimDuration::from_micros(40), ga(0, 1), ga(1, 2), b"hello");
/// sc.fault_at(SimDuration::from_micros(60), 0, FaultOp::CutFiber(1, 0));
/// let serial = sc.run(ParallelMode::Serial);
/// let threaded = sc.run(ParallelMode::Threads(2));
/// assert_eq!(serial, threaded);
/// ```
#[derive(Debug, Clone)]
pub struct MultiSegScenario {
    segments: Vec<ClusterConfig>,
    bridges: Vec<(GlobalAddr, GlobalAddr, SimDuration)>,
    warmup: SimDuration,
    run_for: SimDuration,
    faults: Vec<(u8, FaultEvent)>,
    sends: Vec<TimedSend>,
    lookahead: Lookahead,
}

impl MultiSegScenario {
    /// Scenario over the given segment configs (each seeds its own
    /// shard) with default warmup (200 µs) and run length (2 ms).
    pub fn new(segments: Vec<ClusterConfig>) -> Self {
        MultiSegScenario {
            segments,
            bridges: vec![],
            warmup: SimDuration::from_micros(200),
            run_for: SimDuration::from_millis(2),
            faults: vec![],
            sends: vec![],
            lookahead: Lookahead::default(),
        }
    }

    /// Override the slice-sizing policy (default: the engine default,
    /// [`Lookahead::Adaptive`]). The determinism contract holds per
    /// policy: reports are mode-invariant under either, but the two
    /// policies legitimately quantize crossing deliveries differently.
    pub fn lookahead(&mut self, policy: Lookahead) -> &mut Self {
        self.lookahead = policy;
        self
    }

    /// Connect two segments with a router pair.
    pub fn bridge(&mut self, a: GlobalAddr, b: GlobalAddr, latency: SimDuration) -> &mut Self {
        self.bridges.push((a, b, latency));
        self
    }

    /// Override the warmup the network gets before the schedule starts.
    pub fn warmup(&mut self, d: SimDuration) -> &mut Self {
        self.warmup = d;
        self
    }

    /// Override how long the scenario runs after warmup.
    pub fn run_for(&mut self, d: SimDuration) -> &mut Self {
        self.run_for = d;
        self
    }

    /// Schedule `op` on `segment` at `offset` past warmup.
    pub fn fault_at(&mut self, offset: SimDuration, segment: u8, op: FaultOp) -> &mut Self {
        self.faults.push((segment, FaultEvent { at: offset, op }));
        self
    }

    /// Send `payload` from `src` to `dst` at `offset` past warmup.
    pub fn send_at(
        &mut self,
        offset: SimDuration,
        src: GlobalAddr,
        dst: GlobalAddr,
        payload: &[u8],
    ) -> &mut Self {
        self.sends.push(TimedSend {
            offset,
            src,
            dst,
            payload: payload.to_vec(),
        });
        self
    }

    /// Execute the schedule under `mode` and report. Two calls with
    /// the same scenario must produce equal reports for *any* pair of
    /// modes — that is the sharded engine's determinism contract.
    pub fn run(&self, mode: ParallelMode) -> MultiSegReport {
        let mut net = MultiSegment::new(self.segments.clone());
        for &(a, b, latency) in &self.bridges {
            net.add_bridge(a, b, latency);
        }
        net.enable_traces(4096);
        net.enable_telemetry(64);
        net.set_parallel_mode(mode);
        net.set_lookahead(self.lookahead);

        // The conservative base slice: min bridge latency.
        let slice = net
            .min_bridge_latency()
            .unwrap_or(SimDuration::from_micros(10));
        // A freshly built network's shards all read time zero.
        let t0 = SimTime::ZERO + self.warmup;
        net.run_until(t0, slice);

        // Faults go straight into each shard's event queue, in
        // schedule order. Every shard's clock reads exactly `t0` here,
        // so an offset names the same instant on every segment.
        for (segment, fault) in &self.faults {
            debug_assert_eq!(net.segment(*segment).now(), t0);
            apply_fault_schedule(net.segment_mut(*segment), std::slice::from_ref(fault));
        }

        // Sends need the coordinator: advance to each send instant
        // (ascending; ties in schedule order), inject, continue.
        let mut sends: Vec<&TimedSend> = self.sends.iter().collect();
        sends.sort_by_key(|s| s.offset);
        for s in sends {
            net.run_until(t0 + s.offset, slice);
            net.send_global(s.src, s.dst, &s.payload);
        }
        net.run_until(t0 + self.run_for, slice);

        // Drain deliveries in deterministic (segment, node, FIFO) order.
        let mut delivered = vec![];
        for seg in 0..net.n_segments() as u8 {
            for node in 0..net.segment(seg).n_nodes() as u8 {
                let at = GlobalAddr { segment: seg, node };
                while let Some(d) = net.pop_global(at) {
                    delivered.push((at, d.src, d.payload));
                }
            }
        }

        MultiSegReport {
            digest: net.digest(),
            delivered,
            unroutable: net.unroutable,
            metrics_json: net.merged_metrics_snapshot().to_json(),
            events_processed: net.events_processed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ga(segment: u8, node: u8) -> GlobalAddr {
        GlobalAddr { segment, node }
    }

    fn three_segment_scenario() -> MultiSegScenario {
        let mut sc = MultiSegScenario::new(
            (0..3u64)
                .map(|s| ClusterConfig::small(4).with_seed(90 + s))
                .collect(),
        );
        sc.bridge(ga(0, 3), ga(1, 0), SimDuration::from_micros(5));
        sc.bridge(ga(1, 3), ga(2, 0), SimDuration::from_micros(7));
        sc.run_for(SimDuration::from_millis(1));
        sc.send_at(SimDuration::from_micros(20), ga(0, 1), ga(2, 2), b"far");
        sc.send_at(SimDuration::from_micros(30), ga(2, 1), ga(0, 2), b"back");
        // Mid-run fiber cut on the middle segment, later repaired.
        sc.fault_at(SimDuration::from_micros(200), 1, FaultOp::CutFiber(2, 0));
        sc.fault_at(SimDuration::from_micros(500), 1, FaultOp::SpliceFiber(2, 0));
        sc.send_at(SimDuration::from_micros(600), ga(0, 1), ga(2, 2), b"again");
        sc
    }

    #[test]
    fn scenario_delivers_across_two_hops() {
        let report = three_segment_scenario().run(ParallelMode::Serial);
        let payloads: Vec<&[u8]> = report
            .delivered
            .iter()
            .map(|(_, _, p)| p.as_slice())
            .collect();
        assert!(payloads.contains(&b"far".as_slice()), "{payloads:?}");
        assert!(payloads.contains(&b"back".as_slice()));
        assert!(payloads.contains(&b"again".as_slice()));
        assert_eq!(report.unroutable, 0);
        assert!(report.events_processed > 0);
        assert!(report.metrics_json.contains("mac_inserted"));
    }

    #[test]
    fn same_scenario_same_report_across_modes() {
        let sc = three_segment_scenario();
        let serial = sc.run(ParallelMode::Serial);
        let t2 = sc.run(ParallelMode::Threads(2));
        let t3 = sc.run(ParallelMode::Threads(3));
        assert_eq!(serial, t2);
        assert_eq!(serial, t3);
    }

    #[test]
    fn repeat_runs_are_deterministic() {
        let sc = three_segment_scenario();
        let a = sc.run(ParallelMode::Serial);
        let b = sc.run(ParallelMode::Serial);
        assert_eq!(a, b);
    }

    /// The first multi-segment rejoin: node 2 of segment 1 crashes,
    /// re-assimilates (~70 ms) and is then reachable from segment 0
    /// again — under both slice policies, identically in every mode.
    #[test]
    fn crashed_node_rejoins_its_segment_and_is_reachable_again() {
        for policy in [Lookahead::Fixed, Lookahead::Adaptive] {
            let mut sc = MultiSegScenario::new(
                (0..2u64).map(|s| ClusterConfig::small(4).with_seed(70 + s)).collect(),
            );
            sc.bridge(ga(0, 3), ga(1, 0), SimDuration::from_micros(5));
            sc.lookahead(policy);
            sc.run_for(SimDuration::from_millis(100));
            sc.fault_at(SimDuration::from_micros(300), 1, FaultOp::CrashNode(2));
            sc.send_at(SimDuration::from_millis(1), ga(0, 1), ga(1, 2), b"while down");
            sc.fault_at(SimDuration::from_millis(2), 1, FaultOp::Rejoin(2));
            sc.send_at(SimDuration::from_millis(95), ga(0, 1), ga(1, 2), b"welcome back");

            let serial = sc.run(ParallelMode::Serial);
            let at_rejoined: Vec<&[u8]> = serial
                .delivered
                .iter()
                .filter(|(dst, _, _)| *dst == ga(1, 2))
                .map(|(_, _, p)| p.as_slice())
                .collect();
            // The datagram sent into the outage is delivered once the
            // node is back (without the rejoin nothing arrives).
            assert_eq!(at_rejoined, [b"while down".as_slice(), b"welcome back"], "{policy:?}");
            assert_eq!(serial, sc.run(ParallelMode::Threads(2)), "{policy:?}");
        }
    }
}
