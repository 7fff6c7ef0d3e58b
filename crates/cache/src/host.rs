//! Host-side primitives with *real* atomics (slides 9–10).
//!
//! The simulation validates the seqlock protocol at message
//! granularity; this module validates the same two-counter discipline
//! against a real memory model, under real threads — the situation on
//! an AmpNet host where the NIC DMA engine updates registered memory
//! while application threads read it.
//!
//! * [`SeqLockBuffer`] — a word-array seqlock: lock-free writers
//!   ("to write: just write"), retrying readers. Built entirely from
//!   `AtomicU64` and fences, no `unsafe`.
//! * [`WriteThroughRegion`] — the slide-10 coherence rule: host-side
//!   writes go straight through to NIC memory; host reads come from
//!   NIC memory, so the host cache can never go stale.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// A seqlock-protected buffer of 64-bit words.
///
/// Writer protocol: bump the sequence to odd (Acquire/Release), store
/// the words, bump back to even. Reader protocol: read the sequence;
/// if odd, retry; read the words; fence; re-read the sequence; if
/// changed, retry. Single-writer (AmpNet records have one producer);
/// multiple concurrent readers are safe and never block the writer.
///
/// ```
/// use ampnet_cache::host::SeqLockBuffer;
///
/// let buf = SeqLockBuffer::new(4);
/// buf.write(&[1, 2, 3, 4]);
/// let mut out = [0u64; 4];
/// let (generation, retries) = buf.read(&mut out);
/// assert_eq!(out, [1, 2, 3, 4]);
/// assert_eq!((generation, retries), (1, 0));
/// ```
#[derive(Debug)]
pub struct SeqLockBuffer {
    seq: AtomicU64,
    words: Box<[AtomicU64]>,
}

impl SeqLockBuffer {
    /// A zeroed buffer of `n` words.
    pub fn new(n: usize) -> Self {
        SeqLockBuffer {
            seq: AtomicU64::new(0),
            words: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the buffer has zero words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Write the whole buffer. Never blocks ("to write: just write").
    /// Must be called from a single writer thread at a time.
    pub fn write(&self, values: &[u64]) {
        assert_eq!(values.len(), self.words.len(), "full-buffer writes only");
        // Enter the write critical section: odd sequence.
        let s = self.seq.fetch_add(1, Ordering::AcqRel);
        debug_assert!(s.is_multiple_of(2), "concurrent writers detected");
        for (w, &v) in self.words.iter().zip(values) {
            w.store(v, Ordering::Relaxed);
        }
        // Publish: even sequence; Release orders the stores before it.
        self.seq.fetch_add(1, Ordering::Release);
    }

    /// One read attempt. `None` means a write raced; retry.
    pub fn try_read(&self, out: &mut [u64]) -> Option<u64> {
        assert_eq!(out.len(), self.words.len());
        let s1 = self.seq.load(Ordering::Acquire);
        if !s1.is_multiple_of(2) {
            return None;
        }
        for (o, w) in out.iter_mut().zip(self.words.iter()) {
            *o = w.load(Ordering::Relaxed);
        }
        // Order the loads above before the sequence re-check.
        fence(Ordering::Acquire);
        let s2 = self.seq.load(Ordering::Relaxed);
        if s1 == s2 {
            Some(s1 / 2)
        } else {
            None
        }
    }

    /// Read to completion, returning (snapshot generation, retries).
    pub fn read(&self, out: &mut [u64]) -> (u64, u64) {
        let mut retries = 0;
        loop {
            if let Some(generation) = self.try_read(out) {
                return (generation, retries);
            }
            retries += 1;
            std::hint::spin_loop();
        }
    }

    /// Current write generation (completed writes).
    pub fn generation(&self) -> u64 {
        self.seq.load(Ordering::Acquire) / 2
    }
}

/// Registered host memory with write-through to NIC cache memory.
///
/// Slide 10: "updates in host memory are written through to AmpNet NIC
/// memory — no caching is allowed in local host cache". We model the
/// two memories explicitly; the invariant is that after any `write`,
/// both agree, and `read` always reflects the latest write regardless
/// of which side asks.
#[derive(Debug)]
pub struct WriteThroughRegion {
    host: SeqLockBuffer,
    nic: SeqLockBuffer,
    writes: AtomicU64,
}

impl WriteThroughRegion {
    /// A region of `n` words, both memories zeroed.
    pub fn new(n: usize) -> Self {
        WriteThroughRegion {
            host: SeqLockBuffer::new(n),
            nic: SeqLockBuffer::new(n),
            writes: AtomicU64::new(0),
        }
    }

    /// Host-side write: lands in NIC memory first (that is the copy
    /// the network replicates from), then the host shadow.
    pub fn write(&self, values: &[u64]) {
        self.nic.write(values);
        self.host.write(values);
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Read the NIC copy (what the network sees).
    pub fn read_nic(&self, out: &mut [u64]) -> (u64, u64) {
        self.nic.read(out)
    }

    /// Read the host copy.
    pub fn read_host(&self, out: &mut [u64]) -> (u64, u64) {
        self.host.read(out)
    }

    /// Completed writes.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// Writer iterations for the threaded races. Miri interprets every
    /// access, so the full count would take hours there; a short run
    /// still crosses enough interleavings for the aliasing/UB checks
    /// Miri is after (statistical torn-read hunting stays on native).
    const SEQLOCK_WRITES: u64 = if cfg!(miri) { 200 } else { 20_000 };
    const WRITE_THROUGH_WRITES: u64 = if cfg!(miri) { 100 } else { 10_000 };

    #[test]
    fn single_thread_roundtrip() {
        let b = SeqLockBuffer::new(4);
        b.write(&[1, 2, 3, 4]);
        let mut out = [0u64; 4];
        let (generation, retries) = b.read(&mut out);
        assert_eq!(out, [1, 2, 3, 4]);
        assert_eq!(generation, 1);
        assert_eq!(retries, 0);
        b.write(&[5, 6, 7, 8]);
        b.read(&mut out);
        assert_eq!(out, [5, 6, 7, 8]);
        assert_eq!(b.generation(), 2);
    }

    #[test]
    fn concurrent_readers_never_see_torn_data() {
        // Writer publishes monotonically increasing uniform patterns;
        // readers must only ever see uniform snapshots.
        let buf = Arc::new(SeqLockBuffer::new(32));
        let stop = Arc::new(AtomicBool::new(false));
        let torn = Arc::new(AtomicU64::new(0));
        let reads: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());

        let mut handles = vec![];
        for reader in 0..reads.len() {
            let buf = buf.clone();
            let stop = stop.clone();
            let torn = torn.clone();
            let reads = reads.clone();
            handles.push(std::thread::spawn(move || {
                let mut out = [0u64; 32];
                while !stop.load(Ordering::Relaxed) {
                    buf.read(&mut out);
                    let first = out[0];
                    if out.iter().any(|&w| w != first) {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                    reads[reader].fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        // Writer on this thread. On a 2-core host it can finish its
        // back-to-back writes before a starved reader completes one
        // read, so it then keeps publishing, yielding the core each
        // time, until every reader has read — bounded, so a reader that
        // never gets through fails the assertion below.
        let all_read = || reads.iter().all(|r| r.load(Ordering::Relaxed) > 0);
        let mut generation = 0;
        while generation < SEQLOCK_WRITES || (!all_read() && generation < 100 * SEQLOCK_WRITES) {
            generation += 1;
            buf.write(&[generation; 32]);
            if generation > SEQLOCK_WRITES {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(torn.load(Ordering::Relaxed), 0, "seqlock let a torn read through");
        assert!(all_read(), "a reader never completed a read");
    }

    #[test]
    fn write_through_keeps_copies_identical() {
        let r = WriteThroughRegion::new(8);
        r.write(&[42; 8]);
        let mut host = [0u64; 8];
        let mut nic = [0u64; 8];
        r.read_host(&mut host);
        r.read_nic(&mut nic);
        assert_eq!(host, nic);
        assert_eq!(r.writes(), 1);
    }

    #[test]
    fn write_through_under_threads() {
        let r = Arc::new(WriteThroughRegion::new(16));
        let stop = Arc::new(AtomicBool::new(false));
        let violations = Arc::new(AtomicU64::new(0));
        let mut handles = vec![];
        for _ in 0..3 {
            let r = r.clone();
            let stop = stop.clone();
            let violations = violations.clone();
            handles.push(std::thread::spawn(move || {
                let mut h = [0u64; 16];
                let mut n = [0u64; 16];
                while !stop.load(Ordering::Relaxed) {
                    let (gh, _) = r.read_host(&mut h);
                    let (gn, _) = r.read_nic(&mut n);
                    // NIC is written first, so its generation must be
                    // at least the host's at any instant.
                    if gn + 1 < gh {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                    // Snapshots must be uniform (torn-free).
                    if h.iter().any(|&w| w != h[0]) || n.iter().any(|&w| w != n[0]) {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for g in 1..=WRITE_THROUGH_WRITES {
            r.write(&[g; 16]);
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(violations.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn try_read_reports_generation() {
        let b = SeqLockBuffer::new(2);
        b.write(&[9, 9]);
        b.write(&[10, 10]);
        let mut out = [0u64; 2];
        assert_eq!(b.try_read(&mut out), Some(2));
    }

    #[test]
    #[should_panic(expected = "full-buffer writes only")]
    fn partial_write_rejected() {
        let b = SeqLockBuffer::new(4);
        b.write(&[1, 2]);
    }
}
