//! Host-speed calibration.
//!
//! The dev container shares its cores; it shifts between speed regimes
//! for 10–30 s at a time, so even a median of many passes moves ±13 %
//! between invocations. Every timed pass is therefore bracketed by a
//! small CPU-only *reference kernel* owned by the benchmark (no repo
//! code: a binary-heap hold model, the same shape of work the
//! simulator's event queue does), and the pass is scored as
//!
//! ```text
//! ops / wall / mean(ref_before, ref_after) × REF_NOMINAL
//! ```
//!
//! i.e. in operations per *calibrated* second: a second of a host that
//! runs the reference kernel at `REF_NOMINAL` pops/s. A memory-bound
//! reference (16 MiB pointer chase) was tried and made the spread worse
//! (±20 %); do not swap one in.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel rate the score is normalised to (pops/s). It only
/// restores units; it is never compared against.
pub const REF_NOMINAL: f64 = 27e6;

const REF_ENTRIES: u64 = 4096;
const REF_POPS: u64 = 400_000;

/// One reference-kernel run: pops per host second.
pub fn ref_rate() -> f64 {
    ref_rate_of(REF_POPS)
}

/// A quarter-length run (≈ 4 ms) for the layer legs, whose
/// repetitions are themselves only tens of milliseconds long.
pub fn ref_rate_short() -> f64 {
    ref_rate_of(REF_POPS / 4)
}

fn ref_rate_of(pops: u64) -> f64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        // xorshift64: the kernel's only source of keys.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
        BinaryHeap::with_capacity(REF_ENTRIES as usize + 1);
    for i in 0..REF_ENTRIES {
        heap.push(Reverse((1 + next() % 4096, i as u32)));
    }
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..pops {
        let Reverse((t, id)) = heap.pop().expect("hold model keeps the heap at its fill");
        acc = acc.wrapping_add(t ^ id as u64);
        heap.push(Reverse((t + 1 + next() % 4096, i as u32)));
    }
    black_box(acc);
    pops as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// What one timed pass measured on the host clock.
#[derive(Debug, Clone, Copy)]
pub struct PassTiming {
    pub wall_s: f64,
    pub ref_before: f64,
    pub ref_after: f64,
}

impl PassTiming {
    /// Mean reference rate around the pass (pops/s).
    pub fn ref_mean(&self) -> f64 {
        (self.ref_before + self.ref_after) / 2.0
    }

    /// `ops` per calibrated second.
    pub fn calibrated(&self, ops: f64) -> f64 {
        ops / self.wall_s.max(1e-12) / self.ref_mean().max(1.0) * REF_NOMINAL
    }

    /// `ops` per raw host second.
    pub fn raw(&self, ops: f64) -> f64 {
        ops / self.wall_s.max(1e-12)
    }
}

/// Time `body`, bracketed by the reference kernel.
pub fn timed<T>(body: impl FnOnce() -> T) -> (T, PassTiming) {
    let ref_before = ref_rate();
    let start = Instant::now();
    let out = body();
    let wall_s = start.elapsed().as_secs_f64();
    let ref_after = ref_rate();
    (
        out,
        PassTiming {
            wall_s,
            ref_before,
            ref_after,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_cancels_a_uniform_slowdown() {
        let fast = PassTiming {
            wall_s: 1.0,
            ref_before: 30e6,
            ref_after: 30e6,
        };
        // Same work on a host running everything at half speed.
        let slow = PassTiming {
            wall_s: 2.0,
            ref_before: 15e6,
            ref_after: 15e6,
        };
        assert!((fast.calibrated(1e6) - slow.calibrated(1e6)).abs() < 1e-6);
        assert!((fast.raw(1e6) - 2.0 * slow.raw(1e6)).abs() < 1e-6);
        // At the nominal reference rate the two clocks agree.
        let nominal = PassTiming {
            wall_s: 1.0,
            ref_before: REF_NOMINAL,
            ref_after: REF_NOMINAL,
        };
        assert!((nominal.calibrated(5.0) - nominal.raw(5.0)).abs() < 1e-9);
    }

    #[test]
    fn reference_kernel_reports_a_positive_rate() {
        assert!(ref_rate() > 1e4);
    }
}
