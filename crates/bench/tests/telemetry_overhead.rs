//! Telemetry must cost nothing on the data-plane hot path: a segment
//! run with a live registry + flight recorder performs exactly the
//! same number of heap allocations inside the measured window as a run
//! with telemetry disabled (registration happens before the window and
//! is the only part allowed to allocate).

use ampnet_ring::{Segment, SegmentParams};
use ampnet_sim::SimDuration;
use ampnet_telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

#[expect(unsafe_code, reason = "sanctioned exception: GlobalAlloc requires unsafe")]
// SAFETY: delegates verbatim to the system allocator; the counter is a
// relaxed atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's contract; forwarded as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from the matching `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds GlobalAlloc's contract; forwarded as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One measured leg: allocations and packets delivered during the run
/// window (after build + telemetry registration).
fn leg(telemetry: bool) -> (u64, u64) {
    let params = SegmentParams {
        n_nodes: 6,
        link: ampnet_phy::LinkParams::gigabit(25.0),
        ..Default::default()
    };
    let mut seg = Segment::new(params, 0xBEEF);
    seg.all_to_all_broadcast(1.5);
    let tel = telemetry.then(|| Telemetry::new(256));
    if let Some(tel) = &tel {
        seg.enable_telemetry(tel);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = seg.run_for(SimDuration::from_millis(3));
    (ALLOCS.load(Ordering::Relaxed) - before, r.delivered_packets)
}

#[test]
fn telemetry_record_path_allocates_nothing() {
    // Warm-up absorbs one-time lazy init charged to neither leg.
    let _ = leg(false);
    let (disabled_allocs, disabled_pkts) = leg(false);
    let (enabled_allocs, enabled_pkts) = leg(true);

    assert_eq!(disabled_pkts, enabled_pkts, "same seed, same traffic");
    assert_eq!(
        enabled_allocs, disabled_allocs,
        "telemetry recording allocated on the hot path"
    );

    // The PR 2 allocation budget holds with telemetry compiled in and
    // enabled: well under a hundredth of an allocation per packet.
    let per_packet = enabled_allocs as f64 / enabled_pkts.max(1) as f64;
    assert!(
        per_packet < 0.01,
        "allocs/packet regressed: {per_packet:.4} ({enabled_allocs} allocs / {enabled_pkts} packets)"
    );
}
