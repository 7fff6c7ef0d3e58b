//! Telemetry must cost nothing on the data-plane hot path: a cluster
//! run with a live registry + flight recorder performs exactly the
//! same number of heap allocations inside the measured window as a run
//! with telemetry disabled (registration happens before the window and
//! is the only part allowed to allocate).
//!
//! The traffic is slide 8's all-to-all broadcast, run once with
//! network-cache updates (full DMA cells, which a receiver applies to
//! its replica in place) and once with Data cells (which a receiver
//! queues as `DataCell` values). Either way a delivered packet costs
//! no allocation.

use ampnet_core::{CellTraffic, Cluster, ClusterConfig, SimDuration, Telemetry};
use ampnet_packet::{build, MicroPacket};
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

const NODES: u8 = 6;

/// One measured leg: allocations and packets delivered during the run
/// window (after boot, telemetry registration and the traffic set-up).
fn leg(telemetry: bool, cell: fn(u8) -> MicroPacket) -> (u64, u64) {
    let mut c = Cluster::new(ClusterConfig::small(NODES as usize).with_seed(0xBEEF));
    c.run_for(SimDuration::from_millis(5));
    let tel = telemetry.then(|| Telemetry::new(256));
    if let Some(tel) = &tel {
        c.enable_telemetry_with(tel);
    }
    // Every node offers its share of 1.5× the ring's one full cell per
    // serialization time.
    let mut traffic = CellTraffic::new(0xBEEF);
    for node in 0..NODES {
        traffic.poisson_at_load(&c, node, cell(node), 1.5).unwrap();
    }
    let delivered = |c: &Cluster| -> u64 { (0..NODES).map(|n| c.mac(n).stats().delivered).sum() };
    let delivered0 = delivered(&c);
    let before = ALLOCS.load(Ordering::Relaxed);
    traffic.run_discarding(&mut c, SimDuration::from_millis(3));
    (
        ALLOCS.load(Ordering::Relaxed) - before,
        delivered(&c) - delivered0,
    )
}

#[test]
fn telemetry_record_path_allocates_nothing() {
    // Slide 8's all-to-all cell from a node, in the two forms a
    // receiver handles.
    let inputs = [
        (
            "cache updates",
            (|node| CellTraffic::cache_update(node, 0)) as fn(u8) -> MicroPacket,
        ),
        ("Data cells", |node| build::data_broadcast(node, 0, [0; 8])),
    ];
    for (input, cell) in inputs {
        // Warm-up absorbs one-time lazy init charged to neither leg.
        let _ = leg(false, cell);
        let (disabled_allocs, disabled_pkts) = leg(false, cell);
        let (enabled_allocs, enabled_pkts) = leg(true, cell);
        println!("{input}: {enabled_allocs} allocations for {enabled_pkts} packets");

        assert_eq!(
            disabled_pkts, enabled_pkts,
            "{input}: same seed, same traffic"
        );
        assert_eq!(
            enabled_allocs, disabled_allocs,
            "{input}: telemetry recording allocated on the hot path"
        );

        // The allocation budget holds with telemetry compiled in and
        // enabled: well under a hundredth of an allocation per packet.
        let per_packet = enabled_allocs as f64 / enabled_pkts.max(1) as f64;
        assert!(
            per_packet < 0.01,
            "{input}: allocs/packet regressed: {per_packet:.4} \
             ({enabled_allocs} allocs / {enabled_pkts} packets)"
        );
    }
}
