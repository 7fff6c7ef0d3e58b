//! Open-loop cell traffic for the ring experiments: the host side of
//! a MAC-level workload on a [`Cluster`]. Each generator offers copies
//! of a template MicroPacket at the node its source field names, as a
//! Poisson process, with gaps from the driver's own [`SimRng`], whether
//! or not the ring keeps up: overload shows as a growing stream
//! backlog. A template is checked once, when its generator is added;
//! each copy is queued as [`Cluster::send_cell`] queues a cell, after
//! every cluster event of its instant. A delivered Data cell is a
//! [`DataCell`](crate::DataCell) value in its receiver's cell queue,
//! read with [`Cluster::pop_cell`]; a DMA cell updates cache replicas.

use crate::Cluster;
use ampnet_packet::{
    Body, ControlWord, DmaCtrl, MicroPacket, PacketError, PacketType, BROADCAST, MAX_DMA_PAYLOAD,
};
use ampnet_sim::{SimDuration, SimRng, SimTime};

/// One generator: copies of `cell` at its source.
#[derive(Debug)]
struct Generator {
    cell: MicroPacket,
    mean_gap_ns: u64,
    /// Instant of the next cell; `None` until the first
    /// [`CellTraffic::run_until`] after the generator was added, which
    /// makes the first cell due at the cluster's clock; for ever when
    /// the cluster was not built with the cell's source.
    next: Option<SimTime>,
    sent: u64,
}

/// Seeded open-loop Poisson cell generators over a [`Cluster`].
#[derive(Debug)]
pub struct CellTraffic {
    rng: SimRng,
    gens: Vec<Generator>,
    /// Cells queued so far, over every generator.
    seq: u64,
}

impl CellTraffic {
    /// No generators yet; every gap is drawn from `SimRng::new(seed)`.
    pub fn new(seed: u64) -> Self {
        CellTraffic {
            rng: SimRng::new(seed),
            gens: Vec::new(),
            seq: 0,
        }
    }

    /// A full network-cache update from `node` on `stream`, broadcast:
    /// slide 8's all-to-all cell, 64 bytes of `node` at offset
    /// 64 × `node` of region 0.
    pub fn cache_update(node: u8, stream: u8) -> MicroPacket {
        let dma = DmaCtrl {
            channel: stream,
            region: 0,
            offset: (MAX_DMA_PAYLOAD * node as usize) as u32,
            len: MAX_DMA_PAYLOAD as u16,
        };
        MicroPacket {
            ctrl: ControlWord::new(PacketType::Dma, node, BROADCAST, stream),
            body: Body::Variable {
                ctrl: dma,
                data: [node; MAX_DMA_PAYLOAD],
            },
        }
    }

    /// Add a generator at `cell`'s source: copies of `cell` (its tag
    /// picks the stream) with exponential gaps of mean `mean_gap`, the
    /// first due at the cluster's clock when [`run_until`](Self::run_until)
    /// is next called. A fixed-payload cell carries the driver's running
    /// cell count as its payload, big-endian, so every copy is distinct.
    /// A malformed cell is refused; a source the cluster was not built
    /// with never sends.
    pub fn poisson(&mut self, cell: MicroPacket, mean_gap: SimDuration) -> Result<(), PacketError> {
        cell.check()?;
        self.gens.push(Generator {
            cell,
            mean_gap_ns: mean_gap.as_nanos().max(1),
            next: None,
            sent: 0,
        });
        Ok(())
    }

    /// [`poisson`](Self::poisson) at the source's share of `load` × the
    /// ring's capacity of one `cell` per serialization time, shared
    /// evenly by every node of `cluster`: a mean gap of `n / load`
    /// serialization times. A load above 1 oversubscribes the ring. A
    /// source `cluster` was not built with is refused.
    pub fn poisson_at_load(
        &mut self,
        cluster: &Cluster,
        cell: MicroPacket,
        load: f64,
    ) -> Result<(), PacketError> {
        if cluster.node(cell.ctrl.src).is_none() {
            return Err(PacketError::UnknownNode(cell.ctrl.src));
        }
        let cfg = &cluster.cfg;
        let ser = cfg.timing.link(cfg.fiber_length_m).serialize_time(cell.wire_bytes());
        let gap_ns = ser.as_nanos() as f64 * cluster.n_nodes() as f64 / load;
        self.poisson(cell, SimDuration::from_nanos(gap_ns.round() as u64))
    }

    /// Run `cluster` to `deadline`, queueing every cell due by then.
    /// Same-instant cells of different generators go in the order the
    /// generators were added. A generator whose source `cluster` was not
    /// built with queues nothing.
    pub fn run_until(&mut self, cluster: &mut Cluster, deadline: SimTime) {
        let now = cluster.now();
        for g in &mut self.gens {
            if cluster.node(g.cell.ctrl.src).is_some() {
                g.next.get_or_insert(now);
            }
        }
        while let Some((at, g)) = self
            .gens
            .iter_mut()
            .filter_map(|g| g.next.filter(|&at| at <= deadline).map(|at| (at, g)))
            .min_by_key(|&(at, _)| at)
        {
            cluster.run_until(at);
            self.seq += 1;
            let mut cell = g.cell.clone();
            if let Body::Fixed(payload) = &mut cell.body {
                *payload = self.seq.to_be_bytes();
            }
            cluster.queue_cell(cell);
            g.sent += 1;
            let gap = self.rng.exponential(g.mean_gap_ns as f64);
            g.next = Some(at + SimDuration::from_nanos(gap.round() as u64));
        }
        cluster.run_until(deadline);
    }

    /// [`run_until`](Self::run_until) `cluster`'s clock + `window`,
    /// emptying every cell queue each 100 µs, for a run that reads the
    /// MAC counters and the meters rather than the delivered cells,
    /// whose queues would otherwise grow with the run. Once the queues
    /// have grown to a window's worth, a run allocates nothing.
    pub fn run_discarding(&mut self, cluster: &mut Cluster, window: SimDuration) {
        let end = cluster.now() + window;
        while cluster.now() < end {
            let step = (cluster.now() + SimDuration::from_micros(100)).min(end);
            self.run_until(cluster, step);
            for node in 0..cluster.n_nodes() as u8 {
                while cluster.pop_cell(node).is_some() {}
            }
        }
    }

    /// Cells queued so far at `node`, over its generators.
    pub fn sent(&self, node: u8) -> u64 {
        self.gens
            .iter()
            .filter(|g| g.cell.ctrl.src == node)
            .map(|g| g.sent)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;
    use ampnet_packet::build;
    use ampnet_ring::PacingMode;

    /// A booted `n`-node cluster on 10 m fibers, its ring up and quiet.
    fn booted(n: usize, seed: u64) -> Cluster {
        let mut c = Cluster::new(ClusterConfig::small(n).with_fiber(10.0).with_seed(seed));
        c.run_for(SimDuration::from_millis(5));
        assert!(c.ring_up());
        c
    }

    /// Every node broadcasting Data cells at `load` × the ring's
    /// capacity.
    fn all_to_all(c: &Cluster, load: f64, seed: u64) -> CellTraffic {
        let mut traffic = CellTraffic::new(seed);
        for node in 0..c.n_nodes() as u8 {
            traffic
                .poisson_at_load(c, build::data_broadcast(node, 0, [0; 8]), load)
                .unwrap();
        }
        traffic
    }

    fn delivered(c: &Cluster) -> u64 {
        (0..c.n_nodes() as u8)
            .map(|n| c.mac(n).unwrap().stats().delivered)
            .sum()
    }

    #[test]
    fn one_broadcast_reaches_everyone_and_strips() {
        let mut c = booted(4, 1);
        let before = delivered(&c);
        let mut traffic = CellTraffic::new(1);
        let cell = build::data_broadcast(0, 0, [0; 8]);
        traffic
            .poisson(cell, SimDuration::from_millis(1000))
            .unwrap();
        let end = c.now() + SimDuration::from_millis(1);
        traffic.run_until(&mut c, end);
        assert_eq!(traffic.sent(0), 1);
        assert_eq!(delivered(&c) - before, 3, "3 other nodes get a copy");
        for n in 1..4 {
            let d = c.pop_cell(n).expect("delivered");
            assert_eq!((d.src, d.stream, d.payload), (0, 0, 1u64.to_be_bytes()));
            assert!(c.pop_message(n).is_none(), "a cell is not a datagram");
        }
        assert_eq!(c.total_drops(), 0);
        assert_eq!(c.arena().live(), 0, "tour complete: frame recycled");
    }

    #[test]
    fn the_first_cell_is_due_at_the_clock_of_the_first_run() {
        let mut c = booted(4, 1);
        let mut traffic = CellTraffic::new(1);
        traffic
            .poisson(build::data(0, 1, 0, [0; 8]), SimDuration::from_micros(1))
            .unwrap();
        // Time the cluster spends before the driver runs owes no cells.
        c.run_for(SimDuration::from_millis(3));
        let t0 = c.now();
        traffic.run_until(&mut c, t0);
        assert_eq!(traffic.sent(0), 1, "one cell, due at t0");
        traffic.run_until(&mut c, t0 + SimDuration::from_micros(10));
        let sent = traffic.sent(0);
        assert!((2..40).contains(&sent), "{sent} cells in 10 µs at a 1 µs mean gap");
    }

    #[test]
    fn unicast_is_removed_by_destination() {
        let mut c = booted(4, 1);
        let (delivered, forwarded) = (
            c.mac(2).unwrap().stats().delivered,
            c.mac(3).unwrap().stats().forwarded,
        );
        let mut traffic = CellTraffic::new(2);
        let cell = build::data(0, 2, 0, [0; 8]);
        traffic.poisson(cell, SimDuration::from_micros(2)).unwrap();
        let end = c.now() + SimDuration::from_micros(20);
        traffic.run_until(&mut c, end);
        c.run_for(SimDuration::from_millis(1));
        let sent = traffic.sent(0);
        assert!(sent > 3, "{sent} cells");
        assert_eq!(c.mac(2).unwrap().stats().delivered - delivered, sent);
        assert_eq!(
            c.mac(3).unwrap().stats().forwarded,
            forwarded,
            "nothing passes node 2"
        );
        assert_eq!(c.total_drops(), 0);
    }

    #[test]
    fn greedy_all_to_all_never_drops() {
        let mut cfg = ClusterConfig::small(6).with_fiber(10.0).with_seed(3);
        cfg.mac.pacing = PacingMode::Greedy;
        let mut c = Cluster::new(cfg);
        c.run_for(SimDuration::from_millis(5));
        let mut traffic = all_to_all(&c, 3.0, 3);
        let end = c.now() + SimDuration::from_millis(2);
        traffic.run_until(&mut c, end);
        assert!(delivered(&c) > 0);
        assert_eq!(
            c.total_drops(),
            0,
            "no-drop must hold without the governor too"
        );
    }

    #[test]
    fn saturated_ring_is_fair_and_near_its_ceiling() {
        let mut c = booted(4, 11);
        let before: Vec<u64> = (0..4)
            .map(|n| c.mac(n).unwrap().streams_ref().sent_bytes()[0])
            .collect();
        let delivered0 = delivered(&c);
        let mut traffic = all_to_all(&c, 1.5, 11);
        let window = SimDuration::from_millis(2);
        let end = c.now() + window;
        traffic.run_until(&mut c, end);
        // One cell per serialization time on the ring, each delivered
        // to the 3 other nodes.
        let ser = c.cfg.timing.link(0.0).serialize_time(20).as_nanos();
        let ceiling = 3.0 * window.as_nanos() as f64 / ser as f64;
        let copies = (delivered(&c) - delivered0) as f64;
        assert!(
            copies > 0.9 * ceiling && copies <= ceiling,
            "{copies} copies against a ceiling of {ceiling}"
        );
        let shares: Vec<f64> = (0..4)
            .map(|n| (c.mac(n).unwrap().streams_ref().sent_bytes()[0] - before[n as usize]) as f64)
            .collect();
        let jain = ampnet_sim::jain_fairness(&shares);
        assert!(
            jain > 0.85,
            "adaptive flow control should give fair shares, jain={jain}"
        );
    }

    #[test]
    fn both_streams_of_every_node_progress() {
        let mut c = booted(4, 5);
        let mut traffic = CellTraffic::new(5);
        let gap = SimDuration::from_nanos(500);
        for node in 0..4u8 {
            traffic
                .poisson(CellTraffic::cache_update(node, 0), gap)
                .unwrap();
            traffic
                .poisson(build::data_broadcast(node, 1, [0; 8]), gap)
                .unwrap();
        }
        traffic.run_discarding(&mut c, SimDuration::from_millis(2));
        assert_eq!(c.total_drops(), 0);
        for node in 0..4 {
            let sent = c.mac(node).unwrap().streams_ref().sent_packets();
            assert!(sent[0] > 100 && sent[1] > 100, "node {node}: {sent:?}");
            assert!(c.pop_cell(node).is_none(), "node {node}: cells emptied");
        }
    }

    /// Every node offers its cache update at half the ring's capacity
    /// for 1 ms: once the ring is quiet, each replica, the senders'
    /// own included, holds every node's 64 bytes.
    #[test]
    fn cache_updates_reach_the_senders_own_replica() {
        let mut c = booted(4, 6);
        let mut traffic = CellTraffic::new(6);
        for node in 0..4u8 {
            traffic
                .poisson_at_load(&c, CellTraffic::cache_update(node, 0), 0.5)
                .unwrap();
        }
        traffic.run_discarding(&mut c, SimDuration::from_millis(1));
        c.run_for(SimDuration::from_millis(1));
        assert!(c.caches_converged());
        for replica in 0..4u8 {
            for node in 1..4u8 {
                let bytes = c
                    .cache(replica)
                    .unwrap()
                    .read(0, 64 * node as u32, 64)
                    .unwrap();
                assert_eq!(bytes[..], [node; 64], "node {node}'s update at {replica}");
            }
        }
    }

    #[test]
    fn a_cache_update_is_a_full_dma_cell() {
        let ctrl = DmaCtrl {
            channel: 1,
            region: 0,
            offset: 64 * 5,
            len: 0,
        };
        let built = build::dma(5, BROADCAST, 1, ctrl, &[5; 64]);
        assert_eq!(Ok(CellTraffic::cache_update(5, 1)), built);
        assert_eq!(CellTraffic::cache_update(5, 1).wire_bytes(), 84);
    }

    #[test]
    fn same_seed_same_traffic() {
        let run = |seed| {
            let mut c = booted(5, 42);
            let mut traffic = all_to_all(&c, 1.0, seed);
            let end = c.now() + SimDuration::from_millis(1);
            traffic.run_until(&mut c, end);
            (
                (0..5).map(|n| traffic.sent(n)).collect::<Vec<_>>(),
                delivered(&c),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
