//! Cluster data-plane: hop scheduling, packet dispatch, and the event
//! handler.
//!
//! Every hop moves a pooled [`FrameRef`](ampnet_packet::FrameRef)
//! through the destination's [`NodeStack`](ampnet_ring::NodeStack):
//! the packet was stored exactly once, at its source, into the
//! cluster's shared `FrameArena`, and each hop reads its header fields
//! in place. A DMA packet is stored when it is queued; a fixed-format
//! cell waits in its stream or urgent queue as a value and is stored
//! when `kick` sends it. Frames leave the pool when they
//! leave the ring (unicast delivery, source strip) or when a ring
//! reconfiguration invalidates them in flight (an arrival whose epoch
//! stamp is not its receiver's seat is released, modelling the packet
//! loss replay then repairs). A
//! delivered cache update is applied to the replica straight from its
//! arena slot; any other delivered frame is copied once, out of its
//! slot onto the handler's stack, and dispatched by reference. Nothing
//! re-parses it and no host queue sits in between.
//!
//! # Each node knows its own seat
//!
//! A node sends only from the seat the last roster commit gave it (its
//! [`TxPort`]: epoch stamp and successor), stamping each frame with it,
//! and a receiver drops a frame whose stamp is not its own seat's.
//!
//! # One kernel event per hop, a second only on demand
//!
//! A hop is an `Arrival` at the successor and the end of transmission
//! at the sender. The second is an event (`Ev::TxDone`) only if
//! something is waiting for the output port when it frees: a `TxDone`
//! that finds the MAC empty does nothing (`next_tx` on an empty MAC
//! returns before it touches any state), so it need not exist.
//!
//! Leaving it out moves nothing else, because the kernel orders
//! same-instant events by what they are, not by when they were pushed.
//! The key is `(time, rank·256 + node, push)`, with ranks
//! non-hop < `Retry` < `Arrival` < `TxDone` (`TieClass for Ev`): at one
//! node and instant a retry and an arriving transit frame are handled
//! before the port frees, so transit goes first and the node inserts
//! only into an empty register (slide 8). Only a `TxDone` can share a
//! `TxDone`'s node, rank and instant, so where a pushed one pops does
//! not depend on when it was pushed. The node's [`TxPort`] records
//! `free_at`, and the port is busy while `(free_at, class of its
//! TxDone)` lies after `(now, class of the event in hand)`. The event
//! is pushed from exactly two places:
//!
//! * at the send, if the MAC still has a backlog behind the frame it
//!   just gave up;
//! * by the first `kick` that finds the port busy and the MAC
//!   backlogged — every MAC fill (`send_own`, an `Arrival`) is followed
//!   by a `kick`, so the MAC cannot become non-empty unnoticed. A
//!   `TxDone` due at this very instant pops after the event in hand,
//!   because its class is the higher.
//!
//! An end of transmission that is never requested costs nothing;
//! [`Cluster::next_event_time`] still reports it, so the multi-segment
//! planner plans the same slices either way. A roster episode leaves
//! unrequested ends alone: every node is unseated until
//! `install_ring`, which idles every port as it seats the members.
//!
//! `run_until` handles one event at a time
//! ([`Sim::next_event`](ampnet_sim::Sim::next_event)), and the kernel
//! fuses each pop with the handler's first schedule: the `Arrival` a
//! hop schedules at the successor takes the heap slot of the event
//! that caused it, one sift instead of a pop and a push.

use crate::cluster::{Cluster, DataCell, Ev, TxPort};
use ampnet_cache::atomics;
use ampnet_cache::SemaphoreAction;
use ampnet_packet::{build, Body, MicroPacket, PacketType};
use ampnet_ring::{MacAction, MacTx, WireFrame};
use ampnet_services::msg::MSG_REGION;
use ampnet_services::socket::AMPIP_STREAM;
use ampnet_services::threads::{THREAD_DONE_VECTOR, THREAD_VECTOR};
use ampnet_sim::{SimDuration, TieClass};

impl Cluster {
    // ----- insertion -----

    pub(crate) fn enqueue_own(&mut self, node: u8, pkt: MicroPacket) {
        // Streams are spread by tag — except D64 atomics, whose tag is
        // the opcode. The semaphore protocol is only safe under
        // per-source FIFO delivery (verified by `check`'s semaphore
        // model with FIFO channels): spreading TestAndSet and Clear
        // over different DRR streams lets a delayed TAS response
        // overtake the Clear response that ends the round, and the
        // requester mistakes it for a grant of its *next* acquire —
        // two holders. All atomic ops therefore share one stream.
        let stream = match pkt.ctrl.ptype {
            PacketType::D64Atomic => 1 % self.cfg.mac.n_streams as u8,
            _ => pkt.ctrl.tag % self.cfg.mac.n_streams as u8,
        };
        // A fixed cell waits as a value and is pooled in `kick`.
        let ctx = &mut self.nodes[node as usize];
        if pkt.ctrl.flags.contains(ampnet_packet::Flags::URGENT) {
            ctx.stack.enqueue_urgent(&mut self.arena, &pkt);
        } else {
            ctx.stack.enqueue(&mut self.arena, stream, &pkt);
            self.meters.enqueued(node as usize, stream, self.sim.now());
        }
    }

    /// Enqueue `node`'s own packets, in order, and start transmitting.
    pub(crate) fn send_own(&mut self, node: u8, pkts: impl IntoIterator<Item = MicroPacket>) {
        for p in pkts {
            self.enqueue_own(node, p);
        }
        self.kick(node);
    }

    /// The stamp of a seat committed now, which `Arrival` and `TxDone`
    /// carry: the roster epoch's low 32 bits, which keep `Ev` at 16
    /// bytes. A stale hop event would pass for a current one only if a
    /// multiple of 2³² roster episodes began between its push and its
    /// pop. It pops within one hop (microseconds), and each episode
    /// needs a failure, a repair or a join.
    pub(crate) fn epoch_stamp(&self) -> u32 {
        self.epoch as u32
    }

    /// Push `node`'s `TxDone`, stamped `epoch`, for the end of the
    /// frame on its wire.
    fn request_tx_done(&mut self, node: u8, epoch: u32) {
        let port = &mut self.ports[node as usize];
        port.requested = true;
        let ev = Ev::TxDone { epoch, node };
        self.sim.schedule_at(port.free_at, ev);
    }

    pub(crate) fn kick(&mut self, node: u8) {
        let i = node as usize;
        let port = self.ports[i];
        // Off the ring (down, left out, or waiting out an episode).
        let Some((epoch, succ)) = port.seat else {
            return;
        };
        let now = self.sim.now();
        // Mid-transmission: the port's `TxDone` pops after the event in
        // hand — where the eager schedule would still have it stored.
        let done = Ev::TxDone { epoch, node }.tie_class();
        if (port.free_at, done) > (now, self.in_hand) {
            // The first kick that has something for the port asks to
            // be woken when it frees.
            if !port.requested && self.nodes[i].stack.mac.has_backlog() {
                self.request_tx_done(node, epoch);
            }
            return;
        }
        match self.nodes[i].stack.next_tx(now, &self.arena) {
            Some(MacTx { frame, own, stream }) => {
                // A transit frame is pooled; an own cell is pooled as
                // it goes on the wire.
                let handle = if own {
                    self.meters.inserted(i, stream, now);
                    let handle = frame.pool(&mut self.arena);
                    // Smart-data-recovery bookkeeping wants the packet
                    // itself (it is re-inserted if replayed): one copy
                    // out per own insertion, not per hop.
                    let packet = self.arena.decode(handle);
                    if packet.ctrl.is_broadcast() {
                        self.nodes[i].outstanding.push_back((now, packet));
                    } else {
                        self.nodes[i].outstanding_unicast.push_back((now, packet));
                    }
                    handle
                } else {
                    frame.frame
                };
                let (ser, latency) = self.nodes[i].stack.phy.hop_timing(frame.wire_bytes as usize);
                // The end of transmission becomes an event only if the
                // MAC already has the next frame waiting.
                self.ports[i] = TxPort {
                    free_at: now + ser,
                    requested: false,
                    ..port
                };
                let waiting = self.nodes[i].stack.mac.has_backlog();
                #[cfg(test)]
                let waiting = waiting || self.eager_tx_done;
                if waiting {
                    self.request_tx_done(node, epoch);
                }
                self.sim.schedule_in(
                    latency,
                    Ev::Arrival {
                        epoch,
                        node: succ,
                        frame: handle,
                    },
                );
            }
            None => {
                if !port.retry_pending {
                    if let Some(at) = self.nodes[i].stack.insert_retry_at(now) {
                        self.ports[i].retry_pending = true;
                        self.sim.schedule_at(at, Ev::Retry { node });
                    }
                }
            }
        }
    }

    pub(crate) fn kick_all(&mut self) {
        for node in 0..self.cfg.n_nodes as u8 {
            self.kick(node);
        }
    }

    // ----- packet dispatch -----

    /// A frame the MAC delivered at `node`, told apart by the
    /// descriptor `classify_arrival` built. A cache update is applied
    /// where it lies, arena body to replica; any other packet is copied
    /// out once and dispatched. A `consumed` frame (a unicast) goes
    /// back to the pool before the handler inserts anything.
    fn deliver(&mut self, node: u8, wf: WireFrame, consumed: bool) {
        let dma = match wf.ctrl.ptype {
            PacketType::Dma => self.arena.dma(wf.frame),
            _ => None,
        };
        let pkt = match dma {
            Some((ctrl, data)) if ctrl.region != MSG_REGION => {
                // Regions this replica has not defined (a node that
                // joined later) are tolerated.
                let data = &data[..ctrl.len as usize];
                let _ = self.nodes[node as usize].cache.apply_dma(&ctrl, data);
                if consumed {
                    self.arena.release(wf.frame);
                }
                crate::apps::on_cache_update(self, node, wf.ctrl.src, ctrl.region, ctrl.offset);
                return;
            }
            Some((ctrl, &data)) => MicroPacket {
                ctrl: wf.ctrl,
                body: Body::Variable { ctrl, data },
            },
            None => self.arena.decode(wf.frame),
        };
        if consumed {
            self.arena.release(wf.frame);
        }
        self.dispatch(node, &pkt);
    }

    fn dispatch(&mut self, node: u8, pkt: &MicroPacket) {
        let i = node as usize;
        match pkt.ctrl.ptype {
            PacketType::Dma => {
                // Message traffic: a cache update never gets here.
                if let Some(d) = self.nodes[i].msg_rx.on_packet(pkt) {
                    if d.stream == AMPIP_STREAM {
                        self.nodes[i].ampip.on_datagram(d);
                    } else if !self.try_collective(node, d.stream, &d.payload) {
                        self.stream_backlog[d.stream as usize] += 1;
                        self.nodes[i].inbox.push_back(d);
                    }
                }
            }
            PacketType::Data => {
                // A raw cell is a value in its own queue, like an
                // interrupt: no allocation, and never read as a datagram.
                let cell = pkt.fixed_payload().map(|&payload| DataCell {
                    src: pkt.ctrl.src,
                    stream: pkt.ctrl.tag,
                    payload,
                });
                self.nodes[i].cells.extend(cell);
            }
            PacketType::D64Atomic => {
                if pkt.ctrl.flags.contains(ampnet_packet::Flags::RESPONSE) {
                    self.on_atomic_response(node, pkt);
                } else if let Some(req) = build::parse_atomic_request(pkt) {
                    let requester = pkt.ctrl.src;
                    if let Ok(effect) =
                        atomics::execute(&mut self.nodes[i].cache, requester, req)
                    {
                        self.send_own(node, [effect.response].into_iter().chain(effect.updates));
                    }
                }
            }
            PacketType::Interrupt => {
                if let Some(ip) = build::parse_interrupt(pkt) {
                    match ip.vector {
                        THREAD_VECTOR if self.task_table.is_some() => {
                            self.try_thread_execute(node, ip.cookie as u32, 0);
                        }
                        // A completion is consumed where it lands: the
                        // result is in the replicated task table, for
                        // `collect_remote`.
                        THREAD_DONE_VECTOR if self.task_table.is_some() => {}
                        _ => self.nodes[i].interrupts.push_back(ip),
                    }
                }
            }
            PacketType::Diagnostic | PacketType::Rostering => {
                // Rostering runs out-of-band (see inject_failure);
                // diagnostics echo handled at the app layer.
            }
        }
    }

    /// A THREAD_VECTOR doorbell arrived (`tries` times): run the task
    /// against this node's replica and publish the result. The doorbell
    /// is an urgent cell and can overtake the task-entry DMA packets, so
    /// a miss re-checks after a short delay (bounded retries).
    pub(crate) fn try_thread_execute(&mut self, node: u8, slot: u32, tries: u8) {
        let Some(table) = self.task_table else {
            return;
        };
        match table.execute(&mut self.nodes[node as usize].cache, slot) {
            Ok(Some((_result, pkts, completion))) => {
                self.send_own(node, pkts.into_iter().chain([completion]));
            }
            _ if tries < 10 => {
                self.sim.schedule_in(
                    SimDuration::from_micros(5),
                    Ev::ThreadRetry {
                        node,
                        slot,
                        tries: tries + 1,
                    },
                );
            }
            _ => {} // entry never materialized; drop the doorbell
        }
    }

    /// Send a semaphore protocol packet and arm its retransmission
    /// timer. The tagged D64 operations are idempotent, so a spurious
    /// resend (packet survived after all) is harmless.
    pub(crate) fn sem_send(&mut self, node: u8, pkt: MicroPacket) {
        let i = node as usize;
        self.nodes[i].sem_seq += 1;
        let seq = self.nodes[i].sem_seq;
        self.send_own(node, [pkt]);
        self.sim.schedule_in(
            SimDuration::from_micros(500),
            Ev::SemTimeout { node, seq },
        );
    }

    fn on_atomic_response(&mut self, node: u8, pkt: &MicroPacket) {
        let now = self.sim.now();
        let ctx = &mut self.nodes[node as usize];
        let Some(sem) = ctx.sem.as_mut() else {
            return;
        };
        // Any response settles the in-flight request: invalidate
        // the pending retransmission timer.
        ctx.sem_seq += 1;
        match sem.on_response(now, pkt) {
            SemaphoreAction::Send(p) => {
                self.sem_send(node, p);
            }
            SemaphoreAction::WaitUntil(t) => {
                self.sim.schedule_at(t, Ev::SemPoll { node });
            }
            SemaphoreAction::None => {
                crate::apps::on_sem_transition(self, node);
            }
        }
    }

    // ----- the event handler -----

    pub(crate) fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival { epoch, node, frame } => {
                if self.ports[node as usize].seat.map(|(e, _)| e) != Some(epoch) {
                    // Packet lost in a ring reconfiguration, or sent to
                    // a node no longer on the ring: recycle the
                    // in-flight frame.
                    self.arena.release(frame);
                    self.tel.stale_frame(self.sim.now(), node, epoch);
                    return;
                }
                let now = self.sim.now();
                let i = node as usize;
                match self.nodes[i].stack.classify_arrival(now, &mut self.arena, frame) {
                    action @ (MacAction::Deliver(wf) | MacAction::DeliverAndForward(wf)) => {
                        self.deliver(node, wf, matches!(action, MacAction::Deliver(_)));
                    }
                    // An own unicast whose destination left the ring
                    // also tours back and is stripped here; it retires
                    // no broadcast.
                    MacAction::Strip(wf) if wf.ctrl.is_broadcast() => {
                        crate::apps::on_strip(self, node);
                        // Retire the acknowledged broadcast (oldest
                        // outstanding entry — strips come back in
                        // insertion order) and meter its tour.
                        if let Some((inserted_at, acked)) = self.nodes[i].outstanding.pop_front() {
                            self.meters.toured(inserted_at, now);
                            self.on_diag_strip(node, &acked);
                        }
                    }
                    MacAction::Strip(_) | MacAction::Forward => {}
                }
                // Expire confirmed unicasts (anything older than two
                // tours has certainly reached its destination; the
                // window is set when the ring is installed). Insertion
                // times are monotone, so expiry is a pop of the aged
                // prefix — O(expired), not a scan of every live entry.
                while let Some((t, _)) = self.nodes[i].outstanding_unicast.front() {
                    if now.saturating_since(*t) <= self.unicast_expiry {
                        break;
                    }
                    self.nodes[i].outstanding_unicast.pop_front();
                }
                self.kick(node);
            }
            Ev::TxDone { epoch, node } => {
                // The port is free by the clock (its key is the one in
                // hand); all the event does is serve the backlog, if
                // the node still sits on the ring it was sent on.
                if self.ports[node as usize].seat.map(|(e, _)| e) == Some(epoch) {
                    self.kick(node);
                }
            }
            Ev::Retry { node } => {
                self.ports[node as usize].retry_pending = false;
                self.kick(node);
            }
            Ev::Fail(c) => self.inject_failure(c),
            Ev::Repair(c) => self.apply_repair(c),
            Ev::RingRestored { epoch } => self.restore_ring(epoch),
            Ev::Join { node, req } => self.handle_join(node, req),
            Ev::NodeOnline { node } => self.handle_node_online(node),
            Ev::SemPoll { node } => {
                let now = self.sim.now();
                if let Some(sem) = self.nodes[node as usize].sem.as_mut() {
                    match sem.poll(now) {
                        SemaphoreAction::Send(p) => {
                            self.sem_send(node, p);
                        }
                        SemaphoreAction::WaitUntil(t) => {
                            self.sim.schedule_at(t, Ev::SemPoll { node });
                        }
                        SemaphoreAction::None => {}
                    }
                }
            }
            Ev::SemTimeout { node, seq } => {
                let i = node as usize;
                if self.nodes[i].sem_seq != seq || !self.nodes[i].online {
                    return; // settled or superseded
                }
                if let Some(pkt) = self.nodes[i].sem.as_ref().and_then(|s| s.resend()) {
                    self.sem_send(node, pkt);
                }
            }
            Ev::SemCritDone { node } => crate::apps::on_crit_done(self, node),
            Ev::CounterTick => crate::apps::on_counter_tick(self),
            Ev::FailoverPoll { node } => crate::apps::on_failover_poll(self, node),
            Ev::SeqWriterTick => crate::apps::on_seq_writer_tick(self),
            Ev::SeqReaderTick { node } => crate::apps::on_seq_reader_tick(self, node),
            Ev::ThreadRetry { node, slot, tries } => {
                if self.nodes[node as usize].online {
                    self.try_thread_execute(node, slot, tries);
                }
            }
            Ev::DiagSweep => self.run_diag_sweep(),
            Ev::ErrorBurst { node, seed, errors } => self.apply_error_burst(node, seed, errors),
        }
    }
}

#[cfg(test)]
mod tests {
    //! The on-demand `TxDone` schedule against the eager one:
    //! `Cluster::eager_tx_done` (test builds only) pushes the event at
    //! every send, two heap entries per hop. The two must be
    //! indistinguishable from outside, instant by instant.

    use super::*;
    use crate::apps::SemStressConfig;
    use crate::cluster::RosterReason;
    use crate::ClusterConfig;
    use ampnet_cache::SemaphoreAddr;
    use ampnet_dk::{Features, JoinRequest, Version};
    use ampnet_roster::planned_rostering;
    use ampnet_sim::{SimRng, SimTime};
    use ampnet_topo::montecarlo::Component;
    use ampnet_topo::{NodeId, SwitchId};

    /// The eager reference and the shipping schedule, same config.
    fn pair(nodes: usize, seed: u64) -> [Cluster; 2] {
        [true, false].map(|eager| {
            let mut c = Cluster::new(ClusterConfig::small(nodes).with_seed(seed));
            c.eager_tx_done = eager;
            c.enable_trace(4096);
            c
        })
    }

    /// The seat invariant: while the ring is up, each online member of
    /// it sits with the epoch's stamp and its ring successor; no other
    /// node sits, and while the ring is down nobody does.
    fn assert_seated(c: &Cluster, at: &str) {
        let order = &c.ring().order;
        for (n, port) in c.ports.iter().enumerate() {
            let pos = order.iter().position(|v| v.0 as usize == n);
            let seat = pos
                .filter(|_| c.ring_up() && c.nodes[n].online)
                .map(|p| (c.epoch() as u32, order[(p + 1) % order.len()].0));
            assert_eq!(port.seat, seat, "{at}: node {n} seat");
        }
    }

    /// What every instant is checked for: the clocks, what the planner
    /// would be told, how many frames each MAC has clocked out, and
    /// every seat.
    fn assert_in_step(eager: &Cluster, lazy: &Cluster, at: &str) {
        assert_seated(eager, at);
        assert_seated(lazy, at);
        assert_eq!(eager.now(), lazy.now(), "{at}: clock");
        assert_eq!(
            eager.next_event_time(),
            lazy.next_event_time(),
            "{at}: next event time"
        );
        assert_eq!(eager.arena().stats(), lazy.arena().stats(), "{at}: arena");
        for (n, (e, l)) in eager.nodes.iter().zip(&lazy.nodes).enumerate() {
            let (e, l) = (e.stack.mac.stats(), l.stack.mac.stats());
            assert_eq!(
                (e.inserted, e.forwarded),
                (l.inserted, l.forwarded),
                "{at}: node {n} frames clocked out"
            );
        }
    }

    /// Everything one can see of a cluster from outside, compared.
    fn assert_indistinguishable(eager: &Cluster, lazy: &Cluster, at: &str) {
        assert_in_step(eager, lazy, at);
        assert_eq!(eager.trace().digest(), lazy.trace().digest(), "{at}: trace");
        assert_eq!(eager.observations(), lazy.observations(), "{at}: journal");
        assert_eq!(eager.epoch(), lazy.epoch(), "{at}: epoch");
        for (n, (e, l)) in eager.nodes.iter().zip(&lazy.nodes).enumerate() {
            assert_eq!(
                format!("{:?}", e.stack.mac.stats()),
                format!("{:?}", l.stack.mac.stats()),
                "{at}: node {n} MAC counters"
            );
            assert_eq!(e.online, l.online, "{at}: node {n} liveness");
            if e.online {
                assert!(
                    e.cache.read(0, 0, 64 * 1024) == l.cache.read(0, 0, 64 * 1024),
                    "{at}: node {n} cache bytes"
                );
            }
        }
    }

    /// Advance both to `deadline` one event instant at a time — every
    /// instant the eager schedule stops at, the on-demand one reports
    /// too — with the full comparison every 256th instant.
    fn run_in_step(eager: &mut Cluster, lazy: &mut Cluster, deadline: SimTime, at: &str) {
        let mut instants = 0u32;
        while let Some(next) = eager.next_event_time().filter(|&t| t <= deadline) {
            eager.run_until(next);
            lazy.run_until(next);
            instants += 1;
            if instants.trailing_zeros() >= 8 {
                assert_indistinguishable(eager, lazy, at);
            } else {
                assert_in_step(eager, lazy, at);
            }
        }
        eager.run_until(deadline);
        lazy.run_until(deadline);
        assert_indistinguishable(eager, lazy, at);
    }

    /// Both clusters deliver the same datagrams in the same order.
    fn pop_all(eager: &mut Cluster, lazy: &mut Cluster, at: &str) -> usize {
        let mut popped = 0;
        for n in 0..eager.n_nodes() as u8 {
            loop {
                let (e, l) = (eager.pop_message(n), lazy.pop_message(n));
                assert_eq!(e, l, "{at}: node {n} datagram {popped}");
                if e.is_none() {
                    break;
                }
                popped += 1;
            }
        }
        popped
    }

    /// One heal cycle of the `event_queue_stays_shallow_through_a_heal_
    /// cycle` shape — crash, cut, rejoin, splice under all-to-all
    /// traffic and cache writes — plus a semaphore pair, with every
    /// fault pushed 0–3 µs off the traffic grid so it lands while
    /// frames are on the wire. Returns the kernel events each popped.
    fn heal_cycle(seed: u64) -> (u64, u64) {
        let [mut eager, mut lazy] = pair(16, seed);
        let mut jitter = SimRng::new(seed);
        let t0 = SimTime::ZERO + SimDuration::from_millis(10);
        let mut at =
            |ms| t0 + SimDuration::from_millis(ms) + SimDuration::from_nanos(jitter.below(3001));
        let fiber = Component::Link(NodeId(5), SwitchId(0));
        let req = JoinRequest {
            node: 3,
            version: Version::new(1, 0, 0),
            features: Features::NONE,
            diagnostics_pass: true,
        };
        let (crash, cut, rejoin, splice) = (at(8), at(16), at(24), at(104));
        for c in [&mut eager, &mut lazy] {
            c.run_until(t0);
            assert!(c.ring_up());
            c.schedule_failure(crash, Component::Node(NodeId(3)));
            c.schedule_failure(cut, fiber);
            c.schedule_join(rejoin, 3, req);
            c.schedule_repair(splice, fiber);
            c.start_sem_stress(SemStressConfig {
                addr: SemaphoreAddr {
                    home: 0,
                    region: 0,
                    offset: 4096,
                },
                contenders: vec![1, 2],
                rounds: 40,
                crit: SimDuration::from_micros(50),
                backoff: Default::default(),
            });
        }
        let mut delivered = 0;
        for step in 1..=30u64 {
            let ctx = format!("seed {seed} step {step}");
            let online: Vec<u8> = (0..16).filter(|&n| eager.node_online(n)).collect();
            for c in [&mut eager, &mut lazy] {
                for &src in &online {
                    for &dst in online.iter().filter(|&&d| d != src) {
                        c.send_message(src, dst, 1, &[src; 32]);
                    }
                    c.cache_write(src, 0, 64 * src as u32, &[step as u8; 64]).unwrap();
                }
            }
            // A send from outside the loop while the burst is on the
            // wire, and another into its thinning tail.
            let begin = t0 + SimDuration::from_millis(4 * (step - 1));
            for (k, us) in [(0usize, 40), (1, 90 + 7 * step)] {
                run_in_step(&mut eager, &mut lazy, begin + SimDuration::from_micros(us), &ctx);
                let (src, dst) = (online[(step as usize + k) % online.len()], online[k]);
                eager.send_message(src, dst, 2, &[k as u8; 100]);
                lazy.send_message(src, dst, 2, &[k as u8; 100]);
            }
            run_in_step(&mut eager, &mut lazy, begin + SimDuration::from_millis(4), &ctx);
            delivered += pop_all(&mut eager, &mut lazy, &ctx);
        }
        assert!(delivered > 5_000, "seed {seed}: traffic flowed ({delivered})");
        assert_eq!(eager.ring().len(), 16, "seed {seed}: healed");
        assert_eq!(eager.roster_history().len(), 4, "seed {seed}: boot, crash, cut, rejoin");
        let sem = eager.sem_report().expect("started");
        assert!(sem.acquisitions > 0, "seed {seed}: the semaphore pair ran");
        (eager.events_processed(), lazy.events_processed())
    }

    #[test]
    fn on_demand_tx_done_matches_the_eager_schedule() {
        for seed in 1..=8 {
            let (eager, lazy) = heal_cycle(seed);
            assert!(
                lazy < eager,
                "seed {seed}: on-demand pops {lazy} kernel events, eager {eager}"
            );
        }
    }

    /// Node 1's hop events at one instant, pushed in reverse rank
    /// order on a quiet ring: its port's `TxDone` (at the send, because
    /// a second own frame waits), a transit frame's `Arrival`, then a
    /// `Retry`. They pop in rank order, so the transit frame is in the
    /// register when the port frees and leaves before the waiting own
    /// frame: transit goes first, and the register never holds more
    /// than that one frame. Push order would have popped the `TxDone`
    /// first and inserted the own frame.
    #[test]
    fn same_instant_hop_events_pop_in_rank_order() {
        let [mut eager, mut lazy] = pair(4, 7);
        let transit = build::data(0, 3, 0, [9; 8]);
        for c in [&mut eager, &mut lazy] {
            c.run_for(SimDuration::from_millis(5));
            assert!(c.ring_up());
            let before = *c.nodes[1].stack.mac.stats();
            c.send_own(1, [1, 2].map(|b| build::data(1, 3, 0, [b; 8])));
            let (frees, (epoch, _)) = (c.ports[1].free_at, c.ports[1].seat.expect("seated"));
            assert!(c.ports[1].requested, "the TxDone was pushed at the send");
            let frame = c.arena.insert(&transit);
            c.sim.schedule_at(frees, Ev::Arrival { epoch, node: 1, frame });
            c.ports[1].retry_pending = true;
            c.sim.schedule_at(frees, Ev::Retry { node: 1 });
            // `run_until`, recording node 1's hop events.
            let mut popped = Vec::new();
            while let Some((class, ev)) = c.sim.next_event(frees) {
                c.in_hand = class;
                popped.extend(match ev {
                    Ev::Retry { node: 1 } => Some("Retry"),
                    Ev::Arrival { node: 1, .. } => Some("Arrival"),
                    Ev::TxDone { node: 1, .. } => Some("TxDone"),
                    _ => None,
                });
                c.handle(ev);
            }
            c.in_hand = u16::MAX;
            assert_eq!(popped, ["Retry", "Arrival", "TxDone"]);
            let after = *c.nodes[1].stack.mac.stats();
            assert_eq!(after.forwarded - before.forwarded, 1, "the transit frame left at the release");
            assert_eq!(after.inserted - before.inserted, 1, "the second own frame still waits");
            assert_eq!(after.transit_highwater, transit.wire_bytes(), "one transit frame at a time");
        }
        assert_indistinguishable(&eager, &lazy, "at the shared instant");
        let settled = eager.now() + SimDuration::from_micros(50);
        run_in_step(&mut eager, &mut lazy, settled, "draining");
    }

    /// An episode that completes before a frame has left its port — no
    /// real roster is that quick, which is why it is forced here.
    /// Nothing waits for that end, so the on-demand schedule never
    /// pushes it, and `install_ring` idles the port: the end goes with
    /// its epoch. The eager schedule pops it as a stale no-op; past it,
    /// the two agree.
    #[test]
    fn transmission_outliving_an_episode_leaves_no_event() {
        let [mut eager, mut lazy] = pair(4, 7);
        let mut frees = SimTime::ZERO;
        for c in [&mut eager, &mut lazy] {
            c.run_for(SimDuration::from_millis(5));
            c.send_own(2, [build::data(2, 0, 0, [1; 8])]);
            frees = c.ports[2].free_at;
            let mut outcome =
                planned_rostering(&c.topo, c.ring.clone(), c.now(), c.epoch + 1, &c.cfg.timing.roster)
                    .expect("nodes alive");
            outcome.completed_at = c.now() + SimDuration::from_nanos(10);
            assert!(outcome.completed_at < frees);
            c.begin_episode(RosterReason::Repair(Component::Switch(SwitchId(0))), outcome);
            c.run_until(frees - SimDuration::from_nanos(1));
            assert!(c.ring_up(), "the forced episode is over");
        }
        assert_eq!(eager.next_event_time(), Some(frees), "stored at the send");
        assert_ne!(lazy.next_event_time(), Some(frees), "never pushed");
        let settled = frees + SimDuration::from_micros(50);
        eager.run_until(settled);
        lazy.run_until(settled);
        assert_indistinguishable(&eager, &lazy, "past the stale end");
    }

    /// Frames released as stale so far.
    fn stale_frames(c: &Cluster) -> u64 {
        c.telemetry()
            .snapshot()
            .counter_total("transport_stale_frames_released")
    }

    /// Frames live in the arena.
    fn live_frames(c: &Cluster) -> u64 {
        let s = c.arena().stats();
        s.acquired - s.released
    }

    /// Every datagram delivered so far, with its receiver, in order.
    fn pop_delivered(c: &mut Cluster) -> Vec<(u8, ampnet_services::msg::Datagram)> {
        let mut delivered = Vec::new();
        for n in 0..8 {
            delivered.extend(std::iter::from_fn(|| c.pop_message(n)).map(|d| (n, d)));
        }
        delivered
    }

    /// A booted 8-node cluster moved to roster epoch `epoch`, all-to-all
    /// datagrams on the wire, and a fiber cut whose episode commits
    /// `epoch + 1`; then a second burst on the new ring. Returns the
    /// frames released as stale and every datagram delivered.
    fn run_across_an_episode(epoch: u64) -> (u64, Vec<(u8, ampnet_services::msg::Datagram)>) {
        let mut c = Cluster::new(ClusterConfig::small(8).with_seed(11));
        c.enable_telemetry(64);
        c.run_for(SimDuration::from_millis(5));
        assert!(c.ring_up(), "booted");
        // The quiet ring re-committed at `epoch`: every seat re-stamped.
        c.epoch = epoch;
        for port in &mut c.ports {
            if let Some((stamp, _)) = &mut port.seat {
                *stamp = epoch as u32;
            }
        }
        let before = live_frames(&c);
        let burst = |c: &mut Cluster, tag: u8| {
            for src in 0..8 {
                for dst in (0..8).filter(|&d| d != src) {
                    c.send_message(src, dst, 1, &[tag, src, dst]);
                }
            }
        };
        burst(&mut c, 1);
        c.run_for(SimDuration::from_micros(3));
        c.schedule_failure(c.now(), Component::Link(NodeId(5), SwitchId(0)));
        c.run_for(SimDuration::from_nanos(1));
        assert!(!c.ring_up(), "the cut started an episode");
        c.run_for(SimDuration::from_millis(5));
        assert!(c.ring_up(), "restored");
        assert_eq!(c.epoch(), epoch + 1, "one episode");
        let stale = stale_frames(&c);
        let mut delivered = pop_delivered(&mut c);
        assert_eq!(
            delivered.len(),
            56,
            "the first burst, replayed after the episode"
        );
        burst(&mut c, 2);
        c.run_for(SimDuration::from_millis(1));
        delivered.extend(pop_delivered(&mut c));
        assert_eq!(
            delivered.len(),
            112,
            "the burst sent on the new ring is delivered"
        );
        assert_eq!(
            stale_frames(&c),
            stale,
            "nothing from the new ring is stale"
        );
        assert_eq!(
            live_frames(&c),
            before,
            "every frame went back to the arena"
        );
        (stale, delivered)
    }

    /// The hop events carry the epoch's low 32 bits
    /// (`Cluster::epoch_stamp`). An episode that begins at epoch
    /// 2³² − 1 commits epoch 2³², whose stamp is 0: every frame still in
    /// flight from the old ring must be released as stale, and every
    /// frame of the new ring must be current, exactly as when the same
    /// schedule starts from epoch 1.
    #[test]
    fn stamps_wrap_with_the_epochs_low_32_bits() {
        let wrapped = run_across_an_episode(u64::from(u32::MAX));
        assert!(wrapped.0 > 0, "frames were in flight at the cut");
        assert_eq!(wrapped, run_across_an_episode(1));
    }
}
