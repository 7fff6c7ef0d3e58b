//! Model 1: the slide-9 two-counter message seqlock.
//!
//! A writer updates a replicated record with
//! [`ampnet_cache::seqlock_msg::write_record`] — bump counter₁, write
//! the data, write counter₂ — and the broadcast MicroPackets apply at
//! a replica **in order** (per-source FIFO is the fabric guarantee).
//! A reader runs the slide-9 protocol *one micro-step at a time*
//! against the replica, using the real [`RecordLayout`] offsets, while
//! update packets keep landing between its steps. That stepping is the
//! whole point: on hardware the four reads of the protocol interleave
//! arbitrarily with DMA application, and this model enumerates every
//! such interleaving.
//!
//! The safety property: a read that completes `Ok` never exposes a
//! torn record (bytes from two generations, or bytes disagreeing with
//! the generation counters).
//!
//! The [`SeqlockVariant::SingleCounter`] mutant drops counter₂ —
//! writers publish counter₁ and the data only, readers validate
//! against counter₁ twice. Because counter₁ travels *ahead of* the
//! data, it is stable while the data packets land, and the checker
//! finds a torn `Ok` read in a handful of steps.

use crate::model::{FnvHasher, Model, Property, PropertyKind};
use crate::{CheckOptions, CheckReport};
use ampnet_cache::seqlock_msg::{write_record, RecordLayout};
use ampnet_cache::NetworkCache;
use ampnet_packet::MicroPacket;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// Record region id.
const REGION: u8 = 1;
/// Record payload length: spans a 64-byte DMA cell boundary, so one
/// `write_record` emits two data packets — tearing is only observable
/// when the data itself is multi-packet.
const DATA_LEN: u32 = 96;

/// Which write protocol the model runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqlockVariant {
    /// The real protocol: counter₁, data, counter₂.
    TwoCounter,
    /// Mutant: no counter₂; the reader checks counter₁ twice.
    SingleCounter,
}

/// Reader protocol position (the four micro-steps of `try_read`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ReaderPhase {
    /// About to read counter₁.
    Start,
    /// Read counter₁; about to read counter₂.
    GotC1(u64),
    /// Counters matched; about to read the data.
    GotC2(u64),
    /// Data in hand; about to re-read counter₁.
    GotData(u64, Vec<u8>),
}

/// One global state: writer replica, reader replica, in-flight update
/// packets, and the reader's position in the protocol.
#[derive(Debug, Clone)]
pub struct SeqState {
    writer: NetworkCache,
    replica: NetworkCache,
    pending: VecDeque<MicroPacket>,
    writes_done: u8,
    reader: ReaderPhase,
    /// Last completed read: (generation, torn?).
    last_read: Option<(u64, bool)>,
}

/// One atomic step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqAction {
    /// Writer publishes the next generation.
    Write,
    /// The replica applies the oldest in-flight update packet.
    Apply,
    /// The reader advances one protocol micro-step.
    ReaderStep,
}

/// The seqlock model.
#[derive(Debug, Clone)]
pub struct SeqlockModel {
    /// Protocol variant under check.
    pub variant: SeqlockVariant,
    /// Generations the writer publishes.
    pub writes: u8,
}

impl SeqlockModel {
    /// The record layout shared by writer and reader.
    pub fn layout() -> RecordLayout {
        RecordLayout {
            region: REGION,
            offset: 0,
            data_len: DATA_LEN,
        }
    }

    fn fresh_cache(node: u8) -> NetworkCache {
        let mut c = NetworkCache::new(node);
        c.define_region(REGION, 256).expect("region fits");
        c
    }

    /// Offset the reader uses for its second counter probe.
    fn c2_probe_offset(&self) -> u32 {
        match self.variant {
            SeqlockVariant::TwoCounter => Self::layout().counter2_offset(),
            SeqlockVariant::SingleCounter => Self::layout().offset,
        }
    }

    fn publish(&self, writer: &mut NetworkCache) -> Vec<MicroPacket> {
        let layout = Self::layout();
        let generation = writer.read_u64(REGION, layout.offset).expect("region") + 1;
        let data = vec![generation as u8; DATA_LEN as usize];
        match self.variant {
            SeqlockVariant::TwoCounter => {
                write_record(writer, layout, &data, 0, 0).expect("write fits")
            }
            SeqlockVariant::SingleCounter => {
                // The mutant: counter₁ and the data, no trailing
                // counter — the two-counter discipline is the thing
                // under test, so the broken variant bypasses
                // `write_record`.
                let mut pkts = writer
                    .write(REGION, layout.offset, &generation.to_be_bytes(), 0, 0)
                    .expect("write fits");
                pkts.extend(
                    writer
                        .write(REGION, layout.data_offset(), &data, 0, 0)
                        .expect("write fits"),
                );
                pkts
            }
        }
    }
}

impl Model for SeqlockModel {
    type State = SeqState;
    type Action = SeqAction;

    fn initial_states(&self) -> Vec<SeqState> {
        vec![SeqState {
            writer: Self::fresh_cache(0),
            replica: Self::fresh_cache(9),
            pending: VecDeque::new(),
            writes_done: 0,
            reader: ReaderPhase::Start,
            last_read: None,
        }]
    }

    fn actions(&self, s: &SeqState, out: &mut Vec<SeqAction>) {
        if s.writes_done < self.writes {
            out.push(SeqAction::Write);
        }
        if !s.pending.is_empty() {
            out.push(SeqAction::Apply);
        }
        out.push(SeqAction::ReaderStep);
    }

    fn next_state(&self, s: &SeqState, a: &SeqAction) -> SeqState {
        let mut n = s.clone();
        let layout = Self::layout();
        match a {
            SeqAction::Write => {
                let pkts = self.publish(&mut n.writer);
                n.pending.extend(pkts);
                n.writes_done += 1;
            }
            SeqAction::Apply => {
                let pkt = n.pending.pop_front().expect("enabled only when pending");
                n.replica.apply_packet(&pkt).expect("valid update");
            }
            SeqAction::ReaderStep => {
                n.reader = match &s.reader {
                    ReaderPhase::Start => {
                        ReaderPhase::GotC1(n.replica.read_u64(REGION, layout.offset).expect("c1"))
                    }
                    ReaderPhase::GotC1(c1) => {
                        let c2 = n
                            .replica
                            .read_u64(REGION, self.c2_probe_offset())
                            .expect("c2");
                        if c2 != *c1 {
                            ReaderPhase::Start // busy: retry
                        } else {
                            ReaderPhase::GotC2(*c1)
                        }
                    }
                    ReaderPhase::GotC2(c1) => ReaderPhase::GotData(
                        *c1,
                        n.replica
                            .read(REGION, layout.data_offset(), DATA_LEN)
                            .expect("data")
                            .into_owned(),
                    ),
                    ReaderPhase::GotData(c1, data) => {
                        let again = n.replica.read_u64(REGION, layout.offset).expect("c1 again");
                        if again != *c1 {
                            ReaderPhase::Start // busy: retry
                        } else {
                            let torn = data.iter().any(|&b| b != *c1 as u8);
                            n.last_read = Some((*c1, torn));
                            ReaderPhase::Start
                        }
                    }
                };
            }
        }
        n
    }

    fn fingerprint(&self, s: &SeqState) -> u64 {
        let layout = Self::layout();
        let mut h = FnvHasher::new();
        h.write(&s.replica.read(REGION, 0, layout.footprint()).expect("record"));
        h.write_u8(s.writes_done);
        // Per-source FIFO: the in-flight queue is a suffix of the
        // deterministic packet stream, so its length pins its content.
        h.write_usize(s.pending.len());
        s.reader.hash(&mut h);
        s.last_read.hash(&mut h);
        h.finish()
    }

    fn properties(&self) -> Vec<Property<Self>> {
        vec![
            Property {
                name: "no-torn-read",
                kind: PropertyKind::Always,
                check: |_m, s| s.last_read.is_none_or(|(_, torn)| !torn),
            },
            Property {
                name: "final-generation-readable",
                kind: PropertyKind::Eventually,
                check: |m, s| s.last_read == Some((m.writes as u64, false)),
            },
        ]
    }

    fn format_action(&self, a: &SeqAction) -> String {
        match a {
            SeqAction::Write => "write-record".into(),
            SeqAction::Apply => "apply-update".into(),
            SeqAction::ReaderStep => "reader-step".into(),
        }
    }

    fn format_state(&self, s: &SeqState) -> String {
        let phase = match &s.reader {
            ReaderPhase::Start => "start".into(),
            ReaderPhase::GotC1(c) => format!("c1={c}"),
            ReaderPhase::GotC2(c) => format!("c1=c2={c}"),
            ReaderPhase::GotData(c, d) => {
                format!("c1={c} data=[{:x}..{:x}]", d[0], d[d.len() - 1])
            }
        };
        format!(
            "gen={} in-flight={} reader:{} last={:?}",
            s.writes_done,
            s.pending.len(),
            phase,
            s.last_read
        )
    }
}

/// Check the healthy two-counter protocol exhaustively.
pub fn check_seqlock(max_states: usize) -> CheckReport {
    crate::check(
        &SeqlockModel {
            variant: SeqlockVariant::TwoCounter,
            writes: 2,
        },
        CheckOptions { max_states },
    )
}

/// Check the single-counter mutant (must yield a counterexample).
pub fn check_seqlock_single_counter(max_states: usize) -> CheckReport {
    crate::check(
        &SeqlockModel {
            variant: SeqlockVariant::SingleCounter,
            writes: 2,
        },
        CheckOptions { max_states },
    )
}
