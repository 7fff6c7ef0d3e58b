//! Model 4: the frame-loan ownership protocol on the ring.
//!
//! The node data-plane stores each MicroPacket once into a pooled
//! [`FrameArena`] slot and forwards the 8-byte [`FrameRef`] handle
//! from node to node; the slot is released exactly once, when the real
//! MAC classification ([`ampnet_ring::classify`]) says `Strip` (frame
//! returned to its source) or `Deliver` (unicast consumed). The model
//! drives a small traffic script — unicasts and a broadcast — through
//! every interleaving of per-frame ring hops over a **bounded** arena,
//! so released slots get reused under new generations while stale
//! handles may still be around to observe it.
//!
//! Properties: every in-flight handle still views the packet it was
//! loaned for (no use-after-release aliasing — on the real arena a
//! stale view *panics deterministically*, which the checker converts
//! into a counterexample); the arena's live count always equals the
//! number of in-flight frames; and terminal states hold zero live
//! slots (no leak).
//!
//! Two mutants share one protocol bug — `Deliver` releases the slot
//! but erroneously keeps forwarding the handle:
//!
//! * [`ArenaVariant::DeliverAlsoForwards`] runs it against the real
//!   generation-checked [`FrameArena`]: the next hop's view panics
//!   with "stale FrameRef" — a crash, but a deterministic, debuggable
//!   one at the first wrong access.
//! * [`ArenaVariant::NoGenBump`] runs the same bug against a raw pool
//!   whose release skips the generation bump (and the liveness
//!   check): nothing panics; the stale handle silently reads whatever
//!   packet reused the slot, and the checker exhibits the
//!   corruption — the exact failure mode the generation counter
//!   exists to prevent.

use crate::model::{FnvHasher, Model, Property, PropertyKind};
use crate::{CheckOptions, CheckReport};
use ampnet_packet::{build, FrameArena, FrameRef, MicroPacket, BROADCAST};
use ampnet_ring::{classify, FrameClass};
use std::hash::{Hash, Hasher};

/// Ring size (node ids 0, 1, 2).
const NODES: u8 = 3;
/// Arena slot cap: smaller than the traffic script, forcing reuse.
const CAP: usize = 2;

/// Which arena/protocol combination runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaVariant {
    /// Real arena, correct protocol.
    Real,
    /// Real arena; `Deliver` releases but erroneously keeps
    /// forwarding the handle (panics at the next view).
    DeliverAlsoForwards,
    /// Same protocol bug over a pool whose release skips the
    /// generation bump: the stale handle silently aliases.
    NoGenBump,
}

/// A pool without generation protection: `release` marks the slot free
/// but hands out the same handle value again, and `view` never checks
/// liveness. This is the arena-without-a-generation-counter that
/// [`FrameArena`] deliberately is not.
#[derive(Debug, Clone)]
pub struct RawArena {
    slots: Vec<(MicroPacket, bool)>,
    free: Vec<u32>,
}

impl RawArena {
    fn new() -> Self {
        RawArena {
            slots: vec![],
            free: vec![],
        }
    }

    fn live(&self) -> usize {
        self.slots.iter().filter(|(_, live)| *live).count()
    }

    fn try_insert(&mut self, pkt: &MicroPacket) -> Option<u32> {
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = (pkt.clone(), true);
            return Some(i);
        }
        if self.slots.len() >= CAP {
            return None;
        }
        self.slots.push((pkt.clone(), true));
        Some(self.slots.len() as u32 - 1)
    }

    /// The bug under test: no liveness assertion, no generation.
    fn view(&self, i: u32) -> &MicroPacket {
        &self.slots[i as usize].0
    }

    fn release(&mut self, i: u32) {
        let s = &mut self.slots[i as usize];
        if s.1 {
            s.1 = false;
            self.free.push(i);
        }
    }
}

/// The frame pool in use.
#[derive(Debug, Clone)]
enum Pool {
    Real(FrameArena),
    Raw(RawArena),
}

/// A loaned frame handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Handle {
    Real(FrameRef),
    Raw(u32),
}

/// One frame travelling the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Flight {
    handle: Handle,
    /// Index into the traffic script (names the expected packet).
    idx: u8,
    /// Node about to process the frame.
    at: u8,
}

/// One global state.
#[derive(Debug, Clone)]
pub struct ArenaState {
    pool: Pool,
    flights: Vec<Flight>,
    next_inject: u8,
    delivered: u8,
    /// A stale handle viewed a packet other than its own.
    corrupt: bool,
}

/// One atomic step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaAction {
    /// The next script packet is stored into the pool at its
    /// source (enabled only while the pool has a free slot —
    /// backpressure).
    Inject,
    /// Flight `k` is processed by the node it sits at: view, classify
    /// with the real MAC rule, then strip/deliver/forward.
    Arrive(u8),
}

/// The frame-ownership model.
#[derive(Debug, Clone)]
pub struct ArenaModel {
    /// Arena/protocol combination under check.
    pub variant: ArenaVariant,
    traffic: Vec<MicroPacket>,
}

impl ArenaModel {
    /// The standard script: two crossing unicasts, one broadcast, one
    /// return unicast; tags are script indices so payloads identify
    /// their packet.
    pub fn new(variant: ArenaVariant) -> Self {
        ArenaModel {
            variant,
            traffic: vec![
                build::data(0, 2, 0, [0xA0; 8]),
                build::data(1, BROADCAST, 1, [0xA1; 8]),
                build::data(2, 1, 2, [0xA2; 8]),
                build::data(1, 0, 3, [0xA3; 8]),
            ],
        }
    }

    /// Deliveries the script produces: one per unicast, `NODES - 1`
    /// per broadcast.
    fn expected_deliveries(&self) -> u8 {
        self.traffic
            .iter()
            .map(|p| {
                if p.ctrl.is_broadcast() {
                    NODES - 1
                } else {
                    1
                }
            })
            .sum()
    }

    fn has_capacity(pool: &Pool) -> bool {
        match pool {
            Pool::Real(a) => a.live() < CAP,
            Pool::Raw(a) => a.live() < CAP,
        }
    }
}

impl Model for ArenaModel {
    type State = ArenaState;
    type Action = ArenaAction;

    fn initial_states(&self) -> Vec<ArenaState> {
        let pool = match self.variant {
            ArenaVariant::Real | ArenaVariant::DeliverAlsoForwards => {
                Pool::Real(FrameArena::bounded(CAP))
            }
            ArenaVariant::NoGenBump => Pool::Raw(RawArena::new()),
        };
        vec![ArenaState {
            pool,
            flights: vec![],
            next_inject: 0,
            delivered: 0,
            corrupt: false,
        }]
    }

    fn actions(&self, s: &ArenaState, out: &mut Vec<ArenaAction>) {
        if (s.next_inject as usize) < self.traffic.len() && Self::has_capacity(&s.pool) {
            out.push(ArenaAction::Inject);
        }
        for k in 0..s.flights.len() {
            out.push(ArenaAction::Arrive(k as u8));
        }
    }

    fn next_state(&self, s: &ArenaState, a: &ArenaAction) -> ArenaState {
        let mut n = s.clone();
        match *a {
            ArenaAction::Inject => {
                let pkt = &self.traffic[n.next_inject as usize];
                let handle = match &mut n.pool {
                    Pool::Real(arena) => {
                        Handle::Real(arena.try_insert(pkt).expect("capacity checked"))
                    }
                    Pool::Raw(arena) => {
                        Handle::Raw(arena.try_insert(pkt).expect("capacity checked"))
                    }
                };
                n.flights.push(Flight {
                    handle,
                    idx: n.next_inject,
                    // The source's register insertion puts the frame on
                    // the wire toward its downstream neighbour.
                    at: (pkt.ctrl.src + 1) % NODES,
                });
                n.next_inject += 1;
            }
            ArenaAction::Arrive(k) => {
                let flight = n.flights[k as usize];
                // Read the header exactly as the transit plane would.
                // On the real arena a stale handle panics here; the
                // raw pool silently returns whatever occupies the slot.
                let ctrl = match &n.pool {
                    Pool::Real(arena) => {
                        let Handle::Real(f) = flight.handle else {
                            unreachable!("real pool holds real handles");
                        };
                        arena.header(f).0
                    }
                    Pool::Raw(arena) => {
                        let Handle::Raw(i) = flight.handle else {
                            unreachable!("raw pool holds raw handles");
                        };
                        arena.view(i).ctrl
                    }
                };
                if ctrl != self.traffic[flight.idx as usize].ctrl {
                    n.corrupt = true;
                }
                let release = |pool: &mut Pool, h: Handle| match (pool, h) {
                    (Pool::Real(arena), Handle::Real(f)) => arena.release(f),
                    (Pool::Raw(arena), Handle::Raw(i)) => arena.release(i),
                    _ => unreachable!("pool/handle kinds match"),
                };
                match classify(flight.at, &ctrl) {
                    FrameClass::Strip => {
                        release(&mut n.pool, flight.handle);
                        n.flights.remove(k as usize);
                    }
                    FrameClass::Deliver => {
                        n.delivered += 1;
                        release(&mut n.pool, flight.handle);
                        match self.variant {
                            ArenaVariant::Real => {
                                n.flights.remove(k as usize);
                            }
                            // The bug: the slot is released, but the
                            // handle keeps riding the ring.
                            ArenaVariant::DeliverAlsoForwards | ArenaVariant::NoGenBump => {
                                n.flights[k as usize].at = (flight.at + 1) % NODES;
                            }
                        }
                    }
                    FrameClass::DeliverAndForward => {
                        n.delivered += 1;
                        n.flights[k as usize].at = (flight.at + 1) % NODES;
                    }
                    FrameClass::Forward => {
                        n.flights[k as usize].at = (flight.at + 1) % NODES;
                    }
                }
            }
        }
        n
    }

    fn fingerprint(&self, s: &ArenaState) -> u64 {
        let mut h = FnvHasher::new();
        s.flights.hash(&mut h);
        h.write_u8(s.next_inject);
        h.write_u8(s.delivered);
        h.write_u8(u8::from(s.corrupt));
        // Pool internals beyond what the handles pin: the free-list
        // order decides which slot the next insert picks. Slot ids are
        // interchangeable labels (no property mentions them), so
        // folding the free list directly is a sound slot-symmetric
        // quotient; monotone stats counters are deliberately excluded.
        match &s.pool {
            Pool::Real(a) => {
                h.write_u8(0);
                h.write_usize(a.live());
            }
            Pool::Raw(a) => {
                h.write_u8(1);
                h.write_usize(a.live());
                h.write(&a.free.iter().map(|&i| i as u8).collect::<Vec<_>>());
            }
        }
        h.finish()
    }

    fn properties(&self) -> Vec<Property<Self>> {
        let mut props = vec![
            Property {
                name: "frames-intact",
                kind: PropertyKind::Always,
                check: |_m, s: &ArenaState| !s.corrupt,
            },
            Property {
                name: "no-slot-leak",
                kind: PropertyKind::AlwaysTerminal,
                check: |_m, s: &ArenaState| match &s.pool {
                    Pool::Real(a) => a.live() == 0,
                    Pool::Raw(a) => a.live() == 0,
                },
            },
            Property {
                name: "all-traffic-delivered",
                kind: PropertyKind::Eventually,
                check: |m: &ArenaModel, s: &ArenaState| {
                    s.delivered == m.expected_deliveries() && s.flights.is_empty()
                },
            },
        ];
        // Accounting only holds for the correct protocol; the mutants
        // break it by design (a released slot still has a flight).
        if self.variant == ArenaVariant::Real {
            props.push(Property {
                name: "live-equals-in-flight",
                kind: PropertyKind::Always,
                check: |_m, s: &ArenaState| match &s.pool {
                    Pool::Real(a) => a.live() == s.flights.len(),
                    Pool::Raw(a) => a.live() == s.flights.len(),
                },
            });
        }
        props
    }

    fn format_action(&self, a: &ArenaAction) -> String {
        match *a {
            ArenaAction::Inject => "inject-frame".into(),
            ArenaAction::Arrive(k) => format!("ring-hop(f{k})"),
        }
    }

    fn format_state(&self, s: &ArenaState) -> String {
        let flights: Vec<String> = s
            .flights
            .iter()
            .map(|f| format!("p{}@n{}", f.idx, f.at))
            .collect();
        let live = match &s.pool {
            Pool::Real(a) => a.live(),
            Pool::Raw(a) => a.live(),
        };
        format!(
            "injected={} delivered={} live={} [{}]{}",
            s.next_inject,
            s.delivered,
            live,
            flights.join(" "),
            if s.corrupt { " CORRUPT" } else { "" }
        )
    }
}

/// Check the real arena + correct protocol exhaustively.
pub fn check_arena(max_states: usize) -> CheckReport {
    crate::check(
        &ArenaModel::new(ArenaVariant::Real),
        CheckOptions { max_states },
    )
}

/// Check the deliver-also-forwards mutant (must panic-counterexample).
pub fn check_arena_deliver_forwards(max_states: usize) -> CheckReport {
    crate::check(
        &ArenaModel::new(ArenaVariant::DeliverAlsoForwards),
        CheckOptions { max_states },
    )
}

/// Check the no-generation-bump mutant (must yield silent aliasing).
pub fn check_arena_no_gen_bump(max_states: usize) -> CheckReport {
    crate::check(
        &ArenaModel::new(ArenaVariant::NoGenBump),
        CheckOptions { max_states },
    )
}
