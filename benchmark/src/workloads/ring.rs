//! `ring_saturated`: one 8-node segment, every node broadcasting the
//! smallest (3-word) cell as an open-loop Poisson process at 1.5× the
//! ring's capacity. No transport, roster or services: the MAC, the
//! frame arena and the event queue do nearly all the work, so the
//! per-packet cost is undiluted, and it is the one workload where the
//! modelled ring itself is saturated (slide 8's no-drop claim, the
//! goodput ceiling).

use super::{cluster_counts, hist_quantile, Counts, PassFacts, PassOutput, Prepared};
use crate::spans::Spans;
use crate::stats::{log16_bin, ratio, tail_percentile};
use ampnet_packet::build;
use ampnet_phy::LinkParams;
use ampnet_ring::{Segment, SegmentParams, SegmentReport};
use ampnet_sim::{Fnv64, SimDuration};
use ampnet_telemetry::{MetricsSnapshot, Telemetry};

const NODES: usize = 8;
const FIBER_M: f64 = 25.0;
const OFFERED_LOAD: f64 = 1.5;
const WARM: SimDuration = SimDuration::from_millis(20);
const WINDOW: SimDuration = SimDuration::from_millis(60);

fn params() -> SegmentParams {
    SegmentParams {
        n_nodes: NODES,
        link: LinkParams::gigabit(FIBER_M),
        ..Default::default()
    }
}

/// Closed-form ceiling for this cell mix: a broadcast occupies every
/// one of the `n` links for one serialization time on its tour, and
/// the `n` links work in parallel, so the ring carries at most one
/// broadcast per serialization time; each is delivered to `n − 1`
/// receivers. Delivered copies per simulated second.
pub fn line_rate_ceiling() -> f64 {
    let wire = build::data_broadcast(0, 0, [0; 8]).wire_bytes();
    let ser = params().link.serialize_time(wire).as_secs_f64();
    (NODES - 1) as f64 / ser
}

struct Totals {
    delivered: u64,
    inserted: u64,
    generated: u64,
    would_drop: u64,
}

fn totals(seg: &Segment, report: &SegmentReport) -> Totals {
    Totals {
        delivered: report.delivered_packets,
        inserted: (0..NODES).map(|i| seg.node(i).stats().inserted).sum(),
        generated: report.generated.iter().sum(),
        would_drop: report.drops,
    }
}

struct Ready {
    seg: Segment,
    at_warm: Totals,
    tel: Option<(Telemetry, MetricsSnapshot)>,
}

pub fn setup(seed: u64, traced: bool, spans: &mut Spans) -> Box<dyn Prepared> {
    let mut seg = Segment::new(params(), seed);
    let tel = traced.then(|| Telemetry::new(256));
    if let Some(tel) = &tel {
        seg.enable_telemetry(tel);
    }
    spans.scope("inject", || seg.all_to_all_broadcast(OFFERED_LOAD));
    // The boot of a MAC-only segment is its warm-up: 20 ms brings the
    // stream queues, the governor and the arena to their saturated
    // steady state. Taking the report also resets the latency
    // histograms, so the pass's samples are the pass's alone.
    let warm = spans.scope("boot", || seg.run_for(WARM));
    let at_warm = totals(&seg, &warm);
    let tel = tel.map(|t| {
        seg.publish_metrics();
        let snap = t.snapshot();
        (t, snap)
    });
    Box::new(Ready { seg, at_warm, tel })
}

impl Prepared for Ready {
    fn run(self: Box<Self>, spans: &mut Spans) -> PassOutput {
        let Ready {
            mut seg,
            at_warm,
            tel,
        } = *self;
        let report = spans.scope("advance", || seg.run_for(WINDOW));
        spans.enter("verify");
        let end = totals(&seg, &report);
        let ops = end.delivered - at_warm.delivered;
        let tour = &report.tour_latency;
        let tail_p = tail_percentile(tour.count()).unwrap_or(50);
        let mut digest = Fnv64::new();
        digest
            .fold_u64(end.delivered)
            .fold_u64(end.inserted)
            .fold_u64(tour.count());
        digest
            .fold_u64(tour.sum() as u64)
            .fold_u64(report.access_latency.sum() as u64);
        for (&bytes, &generated) in report.per_source_bytes.iter().zip(&report.generated) {
            digest.fold_u64(bytes).fold_u64(generated);
        }
        let facts = PassFacts {
            ops,
            attempted: end.inserted - at_warm.inserted,
            failed: end.would_drop - at_warm.would_drop,
            sim_window_ns: WINDOW.as_nanos(),
            // Broadcast tour, insert → strip. In saturation nearly every
            // tour falls in one of the histogram's buckets (6.25 %
            // apart), where any quantile is the bucket's midpoint; the
            // mean (sum ÷ count) is exact, so it is the typical delay.
            // The tail is a grouped-data quantile over the buckets.
            sim_delay_typical_ns: tour.mean(),
            sim_delay_tail_ns: hist_quantile(tour, tail_p as f64 / 100.0, &log16_bin),
            tail_percentile: tail_p,
            delay_samples: tour.count(),
            digest: digest.finish(),
        };
        let mut errors = vec![];
        if end.would_drop != 0 {
            errors.push(format!(
                "would_drop = {} (register insertion must never drop)",
                end.would_drop
            ));
        }
        if ops == 0 {
            errors.push("no packet was delivered".into());
        }
        let ceiling = line_rate_ceiling();
        if facts.sim_ops_per_s() > ceiling * 1.0001 {
            errors.push(format!(
                "delivered {} copies/s, above the line-rate ceiling {ceiling}",
                facts.sim_ops_per_s()
            ));
        }
        let backlog: usize = (0..NODES)
            .map(|i| seg.node(i).streams_ref().queued_packets())
            .sum();
        let notes = vec![
            format!(
                "line-rate ceiling for 3-word broadcasts on {NODES} nodes: {ceiling:.0} copies/sim-s; delivered {:.0} ({:.2} % of it)",
                facts.sim_ops_per_s(),
                100.0 * facts.sim_ops_per_s() / ceiling
            ),
            format!(
                "tour latency: mean {:.0} ns, p50 {:.0} ns, p{tail_p} {:.0} ns over {} tours; open-loop backlog {backlog} frames (queueing, not failure)",
                facts.sim_delay_typical_ns,
                hist_quantile(tour, 0.50, &log16_bin),
                facts.sim_delay_tail_ns,
                tour.count()
            ),
        ];
        let mut counts = Counts::new();
        if let Some((tel, before)) = tel {
            seg.publish_metrics();
            cluster_counts(&before, &tel.snapshot(), ops, &mut counts);
            // From the segment's own report where the registry has no
            // such instrument or keeps it since boot (the access-wait
            // histogram there includes the warm-up).
            counts.insert("ring.backlog_frames", backlog as f64);
            counts.insert(
                "ring.access_wait_p99_ns",
                report.access_latency.p99() as f64,
            );
            counts.insert("ring.fairness_jain", report.fairness);
            // The segment's kernel is private: events are derived from
            // the MAC counters (one TxDone and one Arrival per frame
            // hop, one Gen per generated packet; pacing retries are not
            // visible, so this is a lower bound).
            let hops =
                (counts["ring.inserted_per_op"] + counts["ring.forwarded_per_op"]) * ops as f64;
            let generated = (end.generated - at_warm.generated) as f64;
            counts.insert(
                "sim.events_per_op",
                ratio(2.0 * hops + generated, ops as f64),
            );
        }
        spans.exit();
        PassOutput {
            facts,
            errors,
            counts,
            notes,
        }
    }
}
