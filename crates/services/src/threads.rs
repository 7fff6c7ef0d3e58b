//! AmpThreads — remote task execution (slides 12, 17).
//!
//! "Supports embedded multi-threaded application processes": a node
//! submits a task descriptor into the replicated task table and pokes
//! the target node with an Interrupt MicroPacket; the target's AmpDK
//! runs the task and writes the result back into the table, so the
//! submitter (or a failover successor — the table is in the network
//! cache) can collect it.

use ampnet_cache::{CacheError, NetworkCache, RegionId};
use ampnet_packet::build::{self, InterruptPayload};
use ampnet_packet::MicroPacket;

/// The interrupt vector of an AmpThreads doorbell: the submitter asks
/// the target to run the task in the slot the cookie names.
pub const THREAD_VECTOR: u16 = 0x0054;

/// The interrupt vector of an AmpThreads completion: the target tells
/// the submitter the task in the cookie's slot is done. A vector of its
/// own, so a completion is never taken for a doorbell.
pub const THREAD_DONE_VECTOR: u16 = 0x0055;

/// Builtin task kinds (a deterministic stand-in for arbitrary code;
/// real AmpNet shipped firmware tasks the same way — by id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TaskKind {
    /// result = arg + 1
    Increment = 1,
    /// result = arg * arg
    Square = 2,
    /// result = population count of arg
    PopCount = 3,
    /// result = CRC-32 of the arg bytes (as u32)
    Checksum = 4,
}

impl TaskKind {
    fn from_u8(v: u8) -> Option<TaskKind> {
        match v {
            1 => Some(TaskKind::Increment),
            2 => Some(TaskKind::Square),
            3 => Some(TaskKind::PopCount),
            4 => Some(TaskKind::Checksum),
            _ => None,
        }
    }

    /// Execute the task.
    pub fn run(self, arg: u32) -> u32 {
        match self {
            TaskKind::Increment => arg.wrapping_add(1),
            TaskKind::Square => arg.wrapping_mul(arg),
            TaskKind::PopCount => arg.count_ones(),
            TaskKind::Checksum => ampnet_phy::crc32(&arg.to_be_bytes()),
        }
    }
}

/// Task status in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TaskStatus {
    /// Slot unused.
    Free = 0,
    /// Submitted, awaiting execution.
    Pending = 1,
    /// Completed; result valid.
    Done = 2,
}

/// One table entry (16 bytes on the wire):
/// kind(1) status(1) target(1) submitter(1) arg(4) result(4) pad(4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskEntry {
    /// What to run.
    pub kind: TaskKind,
    /// Current status.
    pub status: TaskStatus,
    /// Node that should run it.
    pub target: u8,
    /// Node that submitted it.
    pub submitter: u8,
    /// Argument.
    pub arg: u32,
    /// Result (valid when Done).
    pub result: u32,
}

const ENTRY: u32 = 16;

/// Errors from task submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// Underlying cache failure.
    Cache(CacheError),
    /// The slot already holds a pending or uncollected task; submitting
    /// would silently clobber it.
    SlotBusy,
    /// AmpThreads has no task table: it was never enabled.
    NoTable,
    /// A slot past the table, or past what a doorbell's 16-bit cookie
    /// can name.
    NoSlot(u32),
}

impl From<CacheError> for TaskError {
    fn from(e: CacheError) -> Self {
        TaskError::Cache(e)
    }
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Cache(e) => write!(f, "cache: {e}"),
            TaskError::SlotBusy => write!(f, "task slot busy (collect it first)"),
            TaskError::NoTable => write!(f, "no task table (AmpThreads not enabled)"),
            TaskError::NoSlot(slot) => write!(f, "no task slot {slot} in the table"),
        }
    }
}

impl std::error::Error for TaskError {}

/// The replicated task table.
#[derive(Debug, Clone, Copy)]
pub struct TaskTable {
    /// Region holding the table.
    pub region: RegionId,
    /// Maximum concurrent tasks.
    pub slots: u32,
}

impl TaskTable {
    /// Region bytes needed.
    pub fn footprint(&self) -> u32 {
        self.slots * ENTRY
    }

    fn offset(&self, slot: u32) -> u32 {
        slot.saturating_mul(ENTRY)
    }

    /// `slot`'s doorbell cookie; a slot past the table, or past what
    /// the cookie can name, has none.
    fn cookie(&self, slot: u32) -> Result<u16, TaskError> {
        u16::try_from(slot)
            .ok()
            .filter(|_| slot < self.slots)
            .ok_or(TaskError::NoSlot(slot))
    }

    /// Read an entry from a replica.
    pub fn read(
        &self,
        cache: &NetworkCache,
        slot: u32,
    ) -> Result<Option<TaskEntry>, CacheError> {
        let raw = cache.read(self.region, self.offset(slot), ENTRY)?;
        let Some(kind) = TaskKind::from_u8(raw[0]) else {
            return Ok(None);
        };
        let status = match raw[1] {
            1 => TaskStatus::Pending,
            2 => TaskStatus::Done,
            _ => return Ok(None),
        };
        Ok(Some(TaskEntry {
            kind,
            status,
            target: raw[2],
            submitter: raw[3],
            arg: u32::from_be_bytes(raw[4..8].try_into().expect("4 bytes")),
            result: u32::from_be_bytes(raw[8..12].try_into().expect("4 bytes")),
        }))
    }

    fn write_entry(
        &self,
        cache: &mut NetworkCache,
        slot: u32,
        e: &TaskEntry,
    ) -> Result<Vec<MicroPacket>, CacheError> {
        let mut raw = [0u8; ENTRY as usize];
        raw[0] = e.kind as u8;
        raw[1] = e.status as u8;
        raw[2] = e.target;
        raw[3] = e.submitter;
        raw[4..8].copy_from_slice(&e.arg.to_be_bytes());
        raw[8..12].copy_from_slice(&e.result.to_be_bytes());
        cache.write(self.region, self.offset(slot), &raw, 11, 4)
    }

    /// Submit a task into `slot`: writes the Pending entry and builds
    /// the doorbell interrupt for the target node. Returns
    /// (replication packets, interrupt packet).
    ///
    /// Refuses with [`TaskError::SlotBusy`] when the slot still holds a
    /// pending or uncollected task — a silent overwrite would lose the
    /// in-flight task (or its result) with no signal to the submitter —
    /// and with [`TaskError::NoSlot`] for a slot past the table, whose
    /// entry would overwrite whatever else the region holds.
    pub fn submit(
        &self,
        cache: &mut NetworkCache,
        slot: u32,
        kind: TaskKind,
        target: u8,
        arg: u32,
    ) -> Result<(Vec<MicroPacket>, MicroPacket), TaskError> {
        let cookie = self.cookie(slot)?;
        if self.read(cache, slot)?.is_some() {
            return Err(TaskError::SlotBusy);
        }
        let entry = TaskEntry {
            kind,
            status: TaskStatus::Pending,
            target,
            submitter: cache.node(),
            arg,
            result: 0,
        };
        let pkts = self.write_entry(cache, slot, &entry)?;
        let doorbell = build::interrupt(
            cache.node(),
            target,
            InterruptPayload {
                vector: THREAD_VECTOR,
                cookie,
                arg,
            },
        );
        Ok((pkts, doorbell))
    }

    /// Target-side: execute the pending task in `slot` (typically in
    /// response to the doorbell interrupt) and publish the result.
    /// Returns (result, replication packets, completion interrupt); a
    /// slot past the table holds no task.
    pub fn execute(
        &self,
        cache: &mut NetworkCache,
        slot: u32,
    ) -> Result<Option<(u32, Vec<MicroPacket>, MicroPacket)>, CacheError> {
        let Ok(cookie) = self.cookie(slot) else {
            return Ok(None);
        };
        let Some(mut entry) = self.read(cache, slot)? else {
            return Ok(None);
        };
        if entry.status != TaskStatus::Pending || entry.target != cache.node() {
            return Ok(None);
        }
        entry.result = entry.kind.run(entry.arg);
        entry.status = TaskStatus::Done;
        let pkts = self.write_entry(cache, slot, &entry)?;
        let completion = build::interrupt(
            cache.node(),
            entry.submitter,
            InterruptPayload {
                vector: THREAD_DONE_VECTOR,
                cookie,
                arg: entry.result,
            },
        );
        Ok(Some((entry.result, pkts, completion)))
    }

    /// Submitter-side: collect a completed result and free the slot;
    /// refused as [`submit`](Self::submit) refuses a slot past the table.
    pub fn collect(
        &self,
        cache: &mut NetworkCache,
        slot: u32,
    ) -> Result<Option<(u32, Vec<MicroPacket>)>, TaskError> {
        self.cookie(slot)?;
        let Some(entry) = self.read(cache, slot)? else {
            return Ok(None);
        };
        if entry.status != TaskStatus::Done {
            return Ok(None);
        }
        let zero = [0u8; ENTRY as usize];
        let pkts = cache.write(self.region, self.offset(slot), &zero, 11, 4)?;
        Ok(Some((entry.result, pkts)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (NetworkCache, NetworkCache, TaskTable) {
        let table = TaskTable {
            region: 6,
            slots: 16,
        };
        let mut submitter = NetworkCache::new(1);
        submitter.define_region(6, table.footprint()).unwrap();
        let mut worker = NetworkCache::new(2);
        worker.define_region(6, table.footprint()).unwrap();
        (submitter, worker, table)
    }

    fn sync(from_pkts: &[MicroPacket], to: &mut NetworkCache) {
        for p in from_pkts {
            to.apply_packet(p).unwrap();
        }
    }

    #[test]
    fn remote_task_lifecycle() {
        let (mut sub, mut wrk, table) = setup();
        // Submit square(12) to node 2.
        let (pkts, doorbell) = table.submit(&mut sub, 0, TaskKind::Square, 2, 12).unwrap();
        sync(&pkts, &mut wrk);
        assert_eq!(doorbell.ctrl.dst, 2);
        let ip = build::parse_interrupt(&doorbell).unwrap();
        assert_eq!(ip.vector, THREAD_VECTOR);
        assert_eq!(ip.cookie, 0);

        // Worker executes.
        let (result, pkts, completion) = table.execute(&mut wrk, 0).unwrap().unwrap();
        assert_eq!(result, 144);
        sync(&pkts, &mut sub);
        assert_eq!(completion.ctrl.dst, 1);
        let done = build::parse_interrupt(&completion).unwrap();
        assert_eq!(
            (done.vector, done.cookie, done.arg),
            (THREAD_DONE_VECTOR, 0, 144),
            "a completion is not a doorbell"
        );

        // Submitter collects.
        let (got, pkts) = table.collect(&mut sub, 0).unwrap().unwrap();
        assert_eq!(got, 144);
        sync(&pkts, &mut wrk);
        assert!(table.read(&sub, 0).unwrap().is_none(), "slot freed");
    }

    #[test]
    fn all_task_kinds() {
        assert_eq!(TaskKind::Increment.run(41), 42);
        assert_eq!(TaskKind::Square.run(9), 81);
        assert_eq!(TaskKind::PopCount.run(0xFF), 8);
        assert_eq!(
            TaskKind::Checksum.run(0x12345678),
            ampnet_phy::crc32(&0x12345678u32.to_be_bytes())
        );
    }

    #[test]
    fn wrong_target_refuses() {
        let (mut sub, mut wrk, table) = setup();
        let (pkts, _) = table.submit(&mut sub, 1, TaskKind::Increment, 9, 1).unwrap();
        sync(&pkts, &mut wrk);
        // Worker is node 2, task targets 9.
        assert!(table.execute(&mut wrk, 1).unwrap().is_none());
    }

    #[test]
    fn collect_before_done_is_none() {
        let (mut sub, _, table) = setup();
        let (_pkts, _) = table.submit(&mut sub, 2, TaskKind::Increment, 2, 0).unwrap();
        assert!(table.collect(&mut sub, 2).unwrap().is_none());
    }

    #[test]
    fn empty_slot_reads_none() {
        let (sub, _, table) = setup();
        assert!(table.read(&sub, 5).unwrap().is_none());
    }

    #[test]
    fn submit_refuses_occupied_slot() {
        // Regression: submit used to write the Pending entry blindly,
        // silently clobbering an in-flight task (or an uncollected
        // result) in the same slot.
        let (mut sub, mut wrk, table) = setup();
        let (pkts, _) = table.submit(&mut sub, 3, TaskKind::Square, 2, 7).unwrap();
        sync(&pkts, &mut wrk);
        // Pending → busy.
        assert_eq!(
            table.submit(&mut sub, 3, TaskKind::Increment, 2, 1),
            Err(TaskError::SlotBusy)
        );
        // Done but uncollected → still busy (the result would be lost).
        let (_, pkts, _) = table.execute(&mut wrk, 3).unwrap().unwrap();
        sync(&pkts, &mut sub);
        assert_eq!(
            table.submit(&mut sub, 3, TaskKind::Increment, 2, 1),
            Err(TaskError::SlotBusy)
        );
        // Collected → free again.
        let (result, pkts) = table.collect(&mut sub, 3).unwrap().unwrap();
        assert_eq!(result, 49);
        sync(&pkts, &mut wrk);
        assert!(table.submit(&mut sub, 3, TaskKind::Increment, 2, 1).is_ok());
    }

    #[test]
    fn a_slot_past_the_table_or_the_cookie_is_refused() {
        let (mut sub, mut wrk, table) = setup();
        let past = TaskError::NoSlot(16);
        assert_eq!(
            table.submit(&mut sub, 16, TaskKind::Square, 2, 7),
            Err(past.clone())
        );
        assert_eq!(table.collect(&mut sub, 16), Err(past));
        assert_eq!(table.execute(&mut wrk, 16), Ok(None));
        // A table too large for the doorbell's 16-bit cookie: slot
        // 65,536 would ring slot 0.
        let wide = TaskTable {
            region: 7,
            slots: 65_537,
        };
        sub.define_region(7, wide.footprint()).unwrap();
        let truncated = Err(TaskError::NoSlot(65_536));
        assert_eq!(
            wide.submit(&mut sub, 65_536, TaskKind::Square, 2, 7),
            truncated
        );
        assert!(wide
            .submit(&mut sub, 65_535, TaskKind::Square, 2, 7)
            .is_ok());
    }

    #[test]
    fn failover_successor_can_collect() {
        // The submitter dies after the worker finishes; a third node
        // holding the replica collects the result — "applications can
        // use the network to rebuild".
        let (mut sub, mut wrk, table) = setup();
        let mut successor = NetworkCache::new(3);
        successor.define_region(6, table.footprint()).unwrap();

        let (pkts, _) = table.submit(&mut sub, 4, TaskKind::PopCount, 2, 0xF0F0).unwrap();
        sync(&pkts, &mut wrk);
        sync(&pkts, &mut successor);
        let (_, pkts, _) = table.execute(&mut wrk, 4).unwrap().unwrap();
        sync(&pkts, &mut successor);
        drop(sub); // submitter node lost
        let (result, _) = table.collect(&mut successor, 4).unwrap().unwrap();
        assert_eq!(result, 8);
    }
}
