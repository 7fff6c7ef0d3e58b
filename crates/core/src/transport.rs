//! Cluster data-plane: hop scheduling, packet dispatch, and the event
//! handler.
//!
//! Every hop moves a pooled [`FrameRef`](ampnet_packet::FrameRef)
//! through the destination's [`NodeStack`](ampnet_ring::NodeStack):
//! the packet was serialized exactly once, at its source, into the
//! cluster's shared `FrameArena`. Frames leave the pool when they
//! leave the ring (unicast delivery, source strip) or when a ring
//! reconfiguration invalidates them in flight (stale-epoch arrivals
//! are released, modelling the packet loss replay then repairs).

use crate::cluster::{Cluster, Ev};
use ampnet_cache::atomics;
use ampnet_cache::SemaphoreAction;
use ampnet_packet::{build, MicroPacket, PacketType};
use ampnet_ring::{MacTx, StackOutcome};
use ampnet_services::msg::{Datagram, MsgRx};
use ampnet_services::socket::AMPIP_STREAM;
use ampnet_services::threads::THREAD_VECTOR;
use ampnet_sim::SimDuration;

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
        let ctx = &mut self.nodes[node as usize];
        if pkt.ctrl.flags.contains(ampnet_packet::Flags::URGENT) {
            ctx.stack.enqueue_urgent_packet(&mut self.arena, &pkt);
        } else {
            ctx.stack.enqueue_packet(&mut self.arena, stream, &pkt);
        }
    }

    /// Enqueue `node`'s own packets, in order, and start transmitting.
    pub(crate) fn send_own(&mut self, node: u8, pkts: impl IntoIterator<Item = MicroPacket>) {
        for p in pkts {
            self.enqueue_own(node, p);
        }
        self.kick(node);
    }

    pub(crate) fn kick(&mut self, node: u8) {
        let i = node as usize;
        if !self.ring_up || !self.nodes[i].online || self.tx_busy[i] {
            return;
        }
        let Some(succ) = self.ring_succ[i] else {
            return;
        };
        let now = self.sim.now();
        match self.nodes[i].stack.next_tx(now, &self.arena) {
            Some(MacTx { frame, own, .. }) => {
                if own {
                    // Smart-data-recovery bookkeeping wants the packet
                    // itself (it is re-encoded if replayed): one decode
                    // per own insertion, not per hop.
                    let packet = self.arena.decode(frame.frame);
                    if packet.ctrl.is_broadcast() {
                        self.nodes[i].outstanding.push_back(packet);
                    } else {
                        self.nodes[i].outstanding_unicast.push_back((now, packet));
                    }
                }
                let (ser, latency) = self.nodes[i].stack.phy.hop_timing(frame.wire_bytes as usize);
                self.tx_busy[i] = true;
                let epoch = self.epoch;
                self.sim.schedule_in(ser, Ev::TxDone { epoch, node });
                self.sim.schedule_in(
                    latency,
                    Ev::Arrival {
                        epoch,
                        node: succ,
                        frame: frame.frame,
                    },
                );
            }
            None => {
                if self.nodes[i].stack.mac.streams_ref().has_traffic() && !self.retry_pending[i] {
                    let at = self.nodes[i].stack.mac.next_insert_allowed().max(now);
                    if at > now {
                        self.retry_pending[i] = true;
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

    /// One quiet roster-speed tour (for unicast replay expiry).
    pub(crate) fn quiet_tour(&self) -> SimDuration {
        let n = self.ring.order.len().max(1) as u64;
        let link = self.cfg.timing.link(self.cfg.fiber_length_m * 2.0);
        (link.serialize_time(84) + link.propagation() + self.cfg.timing.node_latency)
            .saturating_mul(n)
    }

    // ----- packet dispatch -----

    fn dispatch(&mut self, node: u8, pkt: MicroPacket) {
        let i = node as usize;
        match pkt.ctrl.ptype {
            PacketType::Dma => {
                if MsgRx::is_message(&pkt) {
                    if let Some(d) = self.nodes[i].msg_rx.on_packet(&pkt) {
                        if d.stream == AMPIP_STREAM {
                            self.nodes[i].ampip.on_datagram(d);
                        } else if !self.try_collective(node, d.stream, &d.payload) {
                            self.stream_backlog[d.stream as usize] += 1;
                            self.nodes[i].inbox.push_back(d);
                        }
                    }
                } else {
                    // Cache update; tolerate regions this replica has
                    // not defined (e.g. a node that joined later).
                    let _ = self.nodes[i].cache.apply_packet(&pkt);
                    crate::apps::on_cache_update(self, node, &pkt);
                }
            }
            PacketType::Data => {
                // Raw data cells: surfaced via the interrupt-style
                // inbox as 8-byte datagrams.
                self.stream_backlog[pkt.ctrl.tag as usize] += 1;
                self.nodes[i].inbox.push_back(Datagram {
                    src: pkt.ctrl.src,
                    stream: pkt.ctrl.tag,
                    payload: pkt.fixed_payload().to_vec(),
                });
            }
            PacketType::D64Atomic => {
                if pkt.ctrl.flags.contains(ampnet_packet::Flags::RESPONSE) {
                    self.on_atomic_response(node, &pkt);
                } else if let Some(req) = build::parse_atomic_request(&pkt) {
                    let requester = pkt.ctrl.src;
                    if let Ok(effect) =
                        atomics::execute(&mut self.nodes[i].cache, requester, req)
                    {
                        self.send_own(node, [effect.response].into_iter().chain(effect.updates));
                    }
                }
            }
            PacketType::Interrupt => {
                if let Some(ip) = build::parse_interrupt(&pkt) {
                    if ip.vector == THREAD_VECTOR && self.task_table.is_some() {
                        self.on_thread_interrupt(node, ip.cookie as u32);
                    } else {
                        self.nodes[i].interrupts.push_back(ip);
                    }
                }
            }
            PacketType::Diagnostic | PacketType::Rostering => {
                // Rostering runs out-of-band (see inject_failure);
                // diagnostics echo handled at the app layer.
            }
        }
    }

    /// A THREAD_VECTOR doorbell arrived: run the task against this
    /// node's replica and publish the result. The doorbell is an
    /// urgent cell and can overtake the task-entry DMA packets, so a
    /// miss re-checks after a short delay (bounded retries).
    fn on_thread_interrupt(&mut self, node: u8, slot: u32) {
        self.try_thread_execute(node, slot, 0);
    }

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
        let i = node as usize;
        if self.nodes[i].sem.is_some() {
            // Any response settles the in-flight request: invalidate
            // the pending retransmission timer.
            self.nodes[i].sem_seq += 1;
            let sem = self.nodes[i].sem.as_mut().expect("checked"); // lint: allow(panic-freedom): presence checked by the enclosing match on sem_enabled
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
    }

    // ----- the event handler -----

    pub(crate) fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival { epoch, node, frame } => {
                if epoch != self.epoch || !self.nodes[node as usize].online {
                    // Packet lost in a ring reconfiguration: recycle
                    // the in-flight frame.
                    self.arena.release(frame);
                    self.tel.stale_frame(self.sim.now(), node, epoch);
                    return;
                }
                let now = self.sim.now();
                let i = node as usize;
                match self.nodes[i].stack.on_wire_arrival(now, &mut self.arena, frame) {
                    StackOutcome::Delivered | StackOutcome::DeliveredAndForwarded => {
                        if let Some(p) = self.nodes[i].stack.delivery.pending.pop_front() {
                            self.dispatch(node, p);
                        }
                    }
                    StackOutcome::Stripped => {
                        crate::apps::on_strip(self, node);
                        // Retire the acknowledged broadcast (oldest
                        // outstanding entry — strips come back in
                        // insertion order).
                        if let Some(acked) = self.nodes[i].outstanding.pop_front() {
                            self.on_diag_strip(node, &acked);
                        }
                    }
                    StackOutcome::Forwarded => {}
                }
                // Expire confirmed unicasts (anything older than two
                // tours has certainly reached its destination). The
                // window only changes with the ring, so it is cached
                // keyed on ring length rather than recomputed (four
                // f64 rounds) on every arrival. Insertion times are
                // monotone, so expiry is a pop of the aged prefix —
                // O(expired), not a scan of every live entry.
                let ring_len = self.ring.order.len();
                if self.unicast_expiry.0 != ring_len {
                    self.unicast_expiry = (ring_len, self.quiet_tour().saturating_mul(2));
                }
                let expiry = self.unicast_expiry.1;
                let now = self.sim.now();
                while let Some((t, _)) = self.nodes[i].outstanding_unicast.front() {
                    if now.saturating_since(*t) <= expiry {
                        break;
                    }
                    self.nodes[i].outstanding_unicast.pop_front();
                }
                self.kick(node);
            }
            Ev::TxDone { epoch, node } => {
                if epoch != self.epoch {
                    return;
                }
                self.tx_busy[node as usize] = false;
                self.kick(node);
            }
            Ev::Retry { node } => {
                self.retry_pending[node as usize] = false;
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
