//! The workload engine: drives the five service classes against a
//! cluster under an open-loop arrival schedule and judges the result.
//!
//! ## Batched dispatch
//!
//! Arrivals are counted at full population fidelity (the `offered`
//! column of the report), but each tick drives at most
//! [`LoadSpec::batch_cap`] service operations per class — each one a
//! representative sample standing for a share of that tick's modeled
//! arrivals. That bounds the simulated work by the tick count, not the
//! population, so a million-client cell costs the same wall-clock as a
//! thousand-client cell while the offered-load accounting stays honest.
//!
//! ## Tick loop
//!
//! Each tick, in a fixed order for determinism: dispatch (pubsub →
//! cache → socket → threads), advance the cluster by one tick, harvest
//! completions (subscriber polls, file stats, socket drains, task
//! collects, semaphore deltas), doom crashed endpoints in the delivery
//! ledger, then run the standard chaos invariant catalogue at
//! [`Phase::Step`]. After the measurement window a settle phase keeps
//! harvesting until in-flight work drains, then the [`Phase::End`]
//! check is binding.

use std::collections::{BTreeMap, VecDeque};

use ampnet_chaos::{
    apply_fault_schedule, CheckCtx, FaultEvent, Invariant, Ledger, LosslessDelivery,
    MutualExclusion, NoDuplicates, Phase, ReconvergenceBound, RingDrops, SeqlockCoherence,
    StateConservation,
};
use ampnet_core::{
    BackoffPolicy, Cluster, ClusterConfig, FileStore, FileStoreLayout, SemStressConfig,
    SemaphoreAddr, SockAddr, TaskKind, Telemetry,
};
use ampnet_services::subscribe::{PollOutcome, Subscriber, TopicLayout};
use ampnet_sim::{SimDuration, SimRng, SimTime};
use ampnet_telemetry::{defs, GLOBAL};

use crate::arrival::{ArrivalGen, ArrivalProcess};
use crate::catalog;
use crate::report::{ClassStats, LoadReport};
use crate::slo::{SloSpec, SloVerdict};

/// Cache region holding the pub/sub topics.
const TOPIC_REGION: u8 = 7;
/// Cache region holding the file store.
const FILE_REGION: u8 = 8;
/// Cache region holding the AmpThreads task table.
const TASK_REGION: u8 = 9;
/// Topics driven by the pubsub class.
const N_TOPICS: u64 = 4;
/// Ring slots per topic.
const TOPIC_SLOTS: u32 = 32;
/// Payload bytes per topic slot: [timestamp u64 BE][sequence u64 BE].
const TOPIC_SLOT_LEN: u32 = 16;
/// Files cycled by the cache class.
const N_FILES: u64 = 16;
/// Payload bytes per file write (ping-pong keeps heap use bounded).
const FILE_PAYLOAD: usize = 64;
/// AmpThreads task slots.
const TASK_SLOTS: u32 = 64;
/// Well-known server port for the socket class.
const SERVER_PORT: u16 = 80;
/// Client port for the socket class (one per client node).
const CLIENT_PORT: u16 = 5000;
/// Network-semaphore word offset in region 0 (the chaos convention).
const SEM_OFFSET: u32 = 2048;

/// Everything that parameterises one workload run.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Modeled client population size (accounting only; the simulated
    /// work is bounded by `batch_cap × ticks`).
    pub population: u64,
    /// Interarrival shape, shared by every class.
    pub process: ArrivalProcess,
    /// Mean operations per second each modeled client offers (split
    /// evenly across the workload classes).
    pub per_client_rate: f64,
    /// Measurement ticks.
    pub ticks: u32,
    /// Tick length.
    pub tick: SimDuration,
    /// Boot/assimilation time before measurement starts.
    pub warmup: SimDuration,
    /// Drain time after measurement before the end-of-run checks.
    pub settle: SimDuration,
    /// Max service operations dispatched per class per tick.
    pub batch_cap: u64,
    /// Fault schedule applied at measurement start (offsets relative
    /// to the end of warmup). Empty = healthy baseline.
    pub faults: Vec<FaultEvent>,
    /// Objectives to judge; defaults to [`catalog::standard_slos`].
    pub slos: Vec<SloSpec>,
}

impl LoadSpec {
    /// The standard sweep cell: 40 × 100 µs measurement ticks, 25
    /// ops/s per modeled client, healthy baseline, standard SLOs.
    pub fn standard(population: u64, process: ArrivalProcess) -> Self {
        LoadSpec {
            population,
            process,
            per_client_rate: 25.0,
            ticks: 40,
            tick: SimDuration::from_micros(100),
            warmup: SimDuration::from_millis(1),
            settle: SimDuration::from_millis(2),
            batch_cap: 8,
            faults: vec![],
            slos: catalog::standard_slos(),
        }
    }
}

/// Run a workload without external telemetry (engine-local histograms
/// still feed the report).
pub fn run(cfg: ClusterConfig, spec: &LoadSpec) -> LoadReport {
    let tel = Telemetry::disabled();
    run_with(cfg, spec, &tel)
}

/// Per-class bookkeeping shared by the tick loop.
struct ClassTrack {
    stats: ClassStats,
    /// Completions observed this tick (degraded-window detector).
    completed_this_tick: u64,
    /// Current run of ticks with work in flight but no completions.
    degraded_run: u64,
    /// Longest such run, in ticks.
    degraded_max: u64,
}

impl ClassTrack {
    fn new(class: &'static str) -> Self {
        ClassTrack {
            stats: ClassStats::new(class),
            completed_this_tick: 0,
            degraded_run: 0,
            degraded_max: 0,
        }
    }

    /// Close out one tick: a tick with in-flight work and zero
    /// completions extends the degraded window.
    fn tick_done(&mut self, in_flight: bool) {
        if in_flight && self.completed_this_tick == 0 {
            self.degraded_run += 1;
            self.degraded_max = self.degraded_max.max(self.degraded_run);
        } else {
            self.degraded_run = 0;
        }
        self.completed_this_tick = 0;
    }
}

/// Run a workload, sharing `tel` so the load-plane instruments land in
/// the same registry as the cluster's own (the bench metrics exercise
/// uses this to prove every `defs::LOAD_*` def is live).
pub fn run_with(cfg: ClusterConfig, spec: &LoadSpec, tel: &Telemetry) -> LoadReport {
    assert!(spec.ticks > 0, "need at least one measurement tick");
    let seed = cfg.seed;
    let n_nodes = cfg.n_nodes as u8;
    assert!(n_nodes >= 3, "workload needs at least 3 nodes");

    // ---- region layout ----
    let topics: Vec<TopicLayout> = (0..N_TOPICS)
        .map(|t| TopicLayout {
            region: TOPIC_REGION,
            base: t as u32 * topic_footprint(),
            slots: TOPIC_SLOTS,
            slot_len: TOPIC_SLOT_LEN,
        })
        .collect();
    let files = FileStoreLayout {
        region: FILE_REGION,
        max_files: N_FILES as u32,
        heap_bytes: 16 * 1024,
    };
    let cfg = cfg.with_regions(vec![
        (0, 64 * 1024),
        (TOPIC_REGION, N_TOPICS as u32 * topic_footprint()),
        (FILE_REGION, files.footprint()),
        (TASK_REGION, TASK_SLOTS * 16),
    ]);
    let mut cluster = Cluster::new(cfg);
    cluster.enable_telemetry_with(tel);
    cluster.enable_threads(TASK_REGION, TASK_SLOTS);

    // ---- telemetry instruments (registered even if never bumped, so
    // the defs::ALL coverage check sees them) ----
    let t_arrivals = tel.counter(&defs::LOAD_ARRIVALS, GLOBAL);
    let t_completions = tel.counter(&defs::LOAD_COMPLETIONS, GLOBAL);
    let t_lagged = tel.counter(&defs::LOAD_PUBSUB_LAGGED, GLOBAL);
    let t_hists = [
        tel.histogram(&defs::LOAD_PUBSUB_NS, GLOBAL),
        tel.histogram(&defs::LOAD_CACHE_NS, GLOBAL),
        tel.histogram(&defs::LOAD_SOCKET_NS, GLOBAL),
        tel.histogram(&defs::LOAD_THREADS_NS, GLOBAL),
        tel.histogram(&defs::LOAD_SEM_NS, GLOBAL),
    ];

    // ---- arrival processes, one per class, independent substreams ----
    let root = SimRng::new(seed);
    let class_rate = spec.population as f64 * spec.per_client_rate / catalog::ALL.len() as f64;
    let mut gens: Vec<ArrivalGen> = catalog::ALL
        .iter()
        .map(|w| ArrivalGen::new(spec.process, class_rate, root.derive(w.name)))
        .collect();
    let mut rng = root.derive("load/dispatch");

    // ---- class state ----
    let mut tracks: Vec<ClassTrack> = catalog::ALL.iter().map(|w| ClassTrack::new(w.name)).collect();
    const PUBSUB: usize = 0;
    const CACHE: usize = 1;
    const SOCKET: usize = 2;
    const THREADS: usize = 3;
    const SEM: usize = 4;

    // pubsub: per-topic publish sequence; two subscribers per topic.
    let mut topic_seq = vec![0u64; topics.len()];
    let subs_per_topic = 2u64.min(n_nodes as u64 - 1);
    let mut subscribers: Vec<(u8, Subscriber)> = vec![];
    for (t, layout) in topics.iter().enumerate() {
        let publisher = (t as u8) % n_nodes;
        for s in 1..=subs_per_topic as u8 {
            subscribers.push(((publisher + s) % n_nodes, Subscriber::new(*layout)));
        }
    }

    // cache: per-file write count and outstanding (version, sent_at).
    let store = FileStore::new(files);
    let mut file_writes = vec![0u32; N_FILES as usize];
    let mut file_outstanding: Vec<VecDeque<(u32, SimTime)>> =
        (0..N_FILES).map(|_| VecDeque::new()).collect();

    // socket: server on the last node; every other node is a client.
    let server = n_nodes - 1;
    cluster
        .sock_bind(server, SERVER_PORT)
        .expect("server port free");
    for client in 0..server {
        cluster.sock_bind(client, CLIENT_PORT).expect("client port free");
    }
    let mut ledger = Ledger::default();
    let mut socket_in_flight: u64 = 0;

    // threads: slot → (submitter, submitted_at).
    let mut tasks_in_flight: BTreeMap<u32, (u8, SimTime)> = BTreeMap::new();
    let mut task_cursor: u32 = 0;

    // ---- warmup: boot, assimilation, region convergence ----
    cluster.run_for(spec.warmup);

    // ---- fault schedule (offsets relative to measurement start) ----
    let mut crashes = apply_fault_schedule(&mut cluster, &spec.faults);
    crashes.sort();

    // sem: a closed-loop contention storm riding the whole window.
    let contenders: Vec<u8> = (1..n_nodes.min(4)).collect();
    let sem_rounds = 8u32;
    cluster.start_sem_stress(SemStressConfig {
        addr: SemaphoreAddr {
            home: 0,
            region: 0,
            offset: SEM_OFFSET,
        },
        contenders: contenders.clone(),
        rounds: sem_rounds,
        crit: SimDuration::from_micros(20),
        backoff: BackoffPolicy::default(),
    });
    let sem_target = contenders.len() as u64 * sem_rounds as u64;
    let mut sem_seen: u64 = 0;

    let invariants: Vec<Box<dyn Invariant>> = vec![
        Box::new(RingDrops),
        Box::new(LosslessDelivery),
        Box::new(NoDuplicates),
        Box::new(SeqlockCoherence),
        Box::new(ReconvergenceBound::default()),
        Box::new(MutualExclusion),
        Box::new(StateConservation),
    ];
    let mut violations: Vec<String> = vec![];
    let mut tripped: Vec<&'static str> = vec![];

    let meas_start = cluster.now();
    let tick_ns = spec.tick.as_nanos();
    let mut crash_cursor = 0usize;

    for tick_i in 0..spec.ticks {
        // -- arrivals (full population fidelity) --
        let until = (tick_i as u64 + 1) * tick_ns;
        let mut tick_arrivals = [0u64; 5];
        for (c, gen) in gens.iter_mut().enumerate() {
            let n = gen.arrivals_until(until);
            tick_arrivals[c] = n;
            tracks[c].stats.offered += n;
            tel.add(t_arrivals, n);
        }

        // -- dispatch, fixed class order --
        let cap = spec.batch_cap;

        // pubsub: publish a timestamped record on a random topic.
        for _ in 0..tick_arrivals[PUBSUB].min(cap) {
            let t = rng.below(topics.len() as u64) as usize;
            let publisher = (t as u8) % n_nodes;
            if !cluster.node_online(publisher) {
                tracks[PUBSUB].stats.failed += subs_per_topic;
                continue;
            }
            let seq = topic_seq[t];
            let mut payload = [0u8; TOPIC_SLOT_LEN as usize];
            payload[..8].copy_from_slice(&cluster.now().0.to_be_bytes());
            payload[8..16].copy_from_slice(&seq.to_be_bytes());
            cluster.record_write(publisher, topics[t].slot_record(seq), &payload);
            topic_seq[t] = seq + 1;
            cluster.record_write(publisher, topics[t].head_record(), &topic_seq[t].to_be_bytes());
            tracks[PUBSUB].stats.dispatched += 1;
        }

        // cache: overwrite one of the cycled files, confirm via a
        // paired reader's local stat. Node 0 is the sole writer: the
        // file store's heap cursor is a shared word, and concurrent
        // cursor bumps from different nodes do not commute (AmpFiles'
        // single-writer discipline; multi-writer stores coordinate
        // with a network semaphore).
        for _ in 0..tick_arrivals[CACHE].min(cap) {
            let k = rng.below(N_FILES) as usize;
            let writer = 0u8;
            if !cluster.node_online(writer) {
                tracks[CACHE].stats.failed += 1;
                continue;
            }
            let mut payload = [0u8; FILE_PAYLOAD];
            payload[..8].copy_from_slice(&cluster.now().0.to_be_bytes());
            payload[8..12].copy_from_slice(&file_writes[k].to_be_bytes());
            match cluster.file_write(writer, &store, &file_name(k), &payload) {
                Ok(()) => {
                    file_writes[k] += 1;
                    file_outstanding[k].push_back((file_writes[k], cluster.now()));
                    tracks[CACHE].stats.dispatched += 1;
                }
                Err(_) => tracks[CACHE].stats.failed += 1,
            }
        }

        // socket: ledger-tagged request to the server, echoed back.
        for _ in 0..tick_arrivals[SOCKET].min(cap) {
            let client = rng.below(server as u64) as u8;
            if !cluster.node_online(client) || !cluster.node_online(server) {
                tracks[SOCKET].stats.failed += 1;
                continue;
            }
            let mut payload = ledger.send(client, server, cluster.now());
            payload.extend_from_slice(&cluster.now().0.to_be_bytes());
            let dst = SockAddr {
                node: server,
                port: SERVER_PORT,
            };
            match cluster.sock_send(client, CLIENT_PORT, dst, &payload) {
                Ok(()) => {
                    socket_in_flight += 1;
                    tracks[SOCKET].stats.dispatched += 1;
                }
                Err(_) => tracks[SOCKET].stats.failed += 1,
            }
        }

        // threads: remote task into the next round-robin slot. The
        // rotation keeps a freshly collected slot out of use for ~56
        // submissions, so the collector's slot-zeroing broadcast has
        // long since replicated before another node writes the slot.
        for _ in 0..tick_arrivals[THREADS].min(cap) {
            let slot = (0..TASK_SLOTS)
                .map(|i| (task_cursor + i) % TASK_SLOTS)
                .find(|s| !tasks_in_flight.contains_key(s));
            let Some(slot) = slot else {
                tracks[THREADS].stats.failed += 1; // table saturated: shed
                continue;
            };
            task_cursor = (slot + 1) % TASK_SLOTS;
            let submitter = rng.below(n_nodes as u64) as u8;
            let target = (submitter + 1 + rng.below(n_nodes as u64 - 1) as u8) % n_nodes;
            if !cluster.node_online(submitter) || !cluster.node_online(target) {
                tracks[THREADS].stats.failed += 1;
                continue;
            }
            let arg = rng.below(u32::MAX as u64) as u32;
            if cluster.spawn_remote(submitter, slot, TaskKind::Square, target, arg) {
                tasks_in_flight.insert(slot, (submitter, cluster.now()));
                tracks[THREADS].stats.dispatched += 1;
            } else {
                tracks[THREADS].stats.failed += 1;
            }
        }

        // -- advance simulated time --
        cluster.run_for(spec.tick);

        // -- harvest --
        harvest(
            &mut cluster,
            &mut tracks,
            &mut subscribers,
            &store,
            &mut file_outstanding,
            server,
            &mut ledger,
            &mut socket_in_flight,
            &mut tasks_in_flight,
            &mut sem_seen,
            tel,
            t_completions,
            t_lagged,
            &t_hists,
        );

        // -- doom ledger traffic for endpoints that crashed --
        while crash_cursor < crashes.len() && crashes[crash_cursor].0 <= cluster.now() {
            ledger.doom_endpoint(crashes[crash_cursor].1);
            crash_cursor += 1;
        }

        // -- invariants at Step --
        let expected = expected_in_flight(
            &tracks,
            &topic_seq,
            subs_per_topic,
            &file_outstanding,
            socket_in_flight,
            &tasks_in_flight,
            sem_seen,
            sem_target,
        );
        for (c, track) in tracks.iter_mut().enumerate() {
            track.tick_done(expected[c]);
        }
        check_invariants(
            &invariants,
            Phase::Step,
            tick_i,
            &cluster,
            &ledger,
            &mut violations,
            &mut tripped,
        );
    }

    // ---- settle: keep harvesting while the pipeline drains ----
    let settle_ticks = spec.settle.as_nanos().div_ceil(tick_ns.max(1));
    for _ in 0..settle_ticks {
        cluster.run_for(spec.tick);
        harvest(
            &mut cluster,
            &mut tracks,
            &mut subscribers,
            &store,
            &mut file_outstanding,
            server,
            &mut ledger,
            &mut socket_in_flight,
            &mut tasks_in_flight,
            &mut sem_seen,
            tel,
            t_completions,
            t_lagged,
            &t_hists,
        );
        while crash_cursor < crashes.len() && crashes[crash_cursor].0 <= cluster.now() {
            ledger.doom_endpoint(crashes[crash_cursor].1);
            crash_cursor += 1;
        }
    }

    // ---- quiesce: the last settle harvest may itself have emitted
    // packets (server echoes, slot-freeing collects); give them time
    // to replicate, then take one final read-only harvest so those
    // completions are not miscounted as failures. ----
    cluster.run_for(SimDuration::from_nanos(2 * tick_ns));
    harvest(
        &mut cluster,
        &mut tracks,
        &mut subscribers,
        &store,
        &mut file_outstanding,
        server,
        &mut ledger,
        &mut socket_in_flight,
        &mut tasks_in_flight,
        &mut sem_seen,
        tel,
        t_completions,
        t_lagged,
        &t_hists,
    );
    cluster.run_for(SimDuration::from_nanos(2 * tick_ns));

    // ---- close out in-flight work as failed ----
    // pubsub: records subscribers never confirmed.
    let expected_deliveries: u64 = topic_seq.iter().sum::<u64>() * subs_per_topic;
    let seen = tracks[PUBSUB].stats.completed + tracks[PUBSUB].stats.failed;
    tracks[PUBSUB].stats.failed += expected_deliveries.saturating_sub(seen);
    for q in &file_outstanding {
        tracks[CACHE].stats.failed += q.len() as u64;
    }
    tracks[SOCKET].stats.failed += socket_in_flight;
    tracks[THREADS].stats.failed += tasks_in_flight.len() as u64;

    // sem: fold the storm's own report into the class.
    if let Some(rep) = cluster.sem_report() {
        tracks[SEM].stats.dispatched = rep.acquisitions;
        tracks[SEM].stats.completed = rep.acquisitions;
        tracks[SEM].stats.failed = rep.unfinished;
        tracks[SEM].stats.latency.merge(&rep.acquire_latency);
        // The telemetry copy is rebuilt from quantiles (same count,
        // bucket-resolution values) — Histogram exposes no sample iter.
        let n = rep.acquire_latency.count();
        for i in 0..n {
            let q = (i as f64 + 0.5) / n as f64;
            tel.record(t_hists[SEM], rep.acquire_latency.quantile(q));
        }
        tel.add(t_completions, rep.acquisitions);
    }

    // ---- end-of-run invariants ----
    check_invariants(
        &invariants,
        Phase::End,
        spec.ticks,
        &cluster,
        &ledger,
        &mut violations,
        &mut tripped,
    );

    // ---- verdicts ----
    let verdicts: Vec<SloVerdict> = spec
        .slos
        .iter()
        .map(|slo| {
            let track = tracks
                .iter()
                .find(|t| t.stats.class == slo.class)
                .unwrap_or_else(|| panic!("SLO for unknown class {}", slo.class));
            SloVerdict {
                class: slo.class,
                p99_ns: track.stats.latency.p99(),
                p99_max_ns: slo.p99_max.as_nanos(),
                delivered_ppm: track.stats.delivered_ppm(),
                min_delivered_ppm: slo.min_delivered_ppm,
                degraded_window_ns: track.degraded_max * tick_ns,
                max_degraded_window_ns: slo.max_degraded_window.as_nanos(),
            }
        })
        .collect();

    LoadReport {
        seed,
        population: spec.population,
        process: spec.process.name(),
        ticks: spec.ticks,
        tick_ns,
        classes: tracks.into_iter().map(|t| t.stats).collect(),
        verdicts,
        violations,
        final_time_ns: cluster.now().0.saturating_sub(meas_start.0),
    }
}

fn topic_footprint() -> u32 {
    TopicLayout {
        region: TOPIC_REGION,
        base: 0,
        slots: TOPIC_SLOTS,
        slot_len: TOPIC_SLOT_LEN,
    }
    .footprint()
}

fn file_name(k: usize) -> String {
    format!("k{k:02}")
}

/// Which classes still have work in flight (degraded-window input).
#[allow(clippy::too_many_arguments)]
fn expected_in_flight(
    tracks: &[ClassTrack],
    topic_seq: &[u64],
    subs_per_topic: u64,
    file_outstanding: &[VecDeque<(u32, SimTime)>],
    socket_in_flight: u64,
    tasks_in_flight: &BTreeMap<u32, (u8, SimTime)>,
    sem_seen: u64,
    sem_target: u64,
) -> [bool; 5] {
    let pub_expected = topic_seq.iter().sum::<u64>() * subs_per_topic;
    [
        pub_expected > tracks[0].stats.completed + tracks[0].stats.failed,
        file_outstanding.iter().any(|q| !q.is_empty()),
        socket_in_flight > 0,
        !tasks_in_flight.is_empty(),
        sem_seen < sem_target,
    ]
}

/// One harvest pass: collect every completion the cluster has made
/// visible since the last pass.
#[allow(clippy::too_many_arguments)]
fn harvest(
    cluster: &mut Cluster,
    tracks: &mut [ClassTrack],
    subscribers: &mut [(u8, Subscriber)],
    store: &FileStore,
    file_outstanding: &mut [VecDeque<(u32, SimTime)>],
    server: u8,
    ledger: &mut Ledger,
    socket_in_flight: &mut u64,
    tasks_in_flight: &mut BTreeMap<u32, (u8, SimTime)>,
    sem_seen: &mut u64,
    tel: &Telemetry,
    t_completions: ampnet_telemetry::CounterHandle,
    t_lagged: ampnet_telemetry::CounterHandle,
    t_hists: &[ampnet_telemetry::HistHandle; 5],
) {
    let now = cluster.now();

    // pubsub: poll every subscriber's local replica.
    for (node, sub) in subscribers.iter_mut() {
        if !cluster.node_online(*node) {
            continue;
        }
        let outcome = match sub.poll(cluster.cache(*node)) {
            Ok(o) => o,
            Err(_) => continue,
        };
        let (skipped, records) = match outcome {
            PollOutcome::Records(r) => (0, r),
            PollOutcome::Lagged { skipped, records } => (skipped, records),
            PollOutcome::Empty => continue,
        };
        tracks[0].stats.failed += skipped;
        tel.add(t_lagged, skipped);
        for rec in records {
            let ts = u64::from_be_bytes(rec[..8].try_into().expect("slot ≥ 8 bytes"));
            let lat = now.0.saturating_sub(ts);
            tracks[0].stats.latency.record(lat);
            tracks[0].stats.completed += 1;
            tracks[0].completed_this_tick += 1;
            tel.record(t_hists[0], lat);
            tel.inc(t_completions);
        }
    }

    // cache: a write completes when the paired reader's replica shows
    // its version.
    for (k, outstanding) in file_outstanding.iter_mut().enumerate() {
        if outstanding.is_empty() {
            continue;
        }
        // Paired reader: any node but the writer (node 0).
        let reader = 1 + (k as u8) % (cluster.n_nodes() as u8 - 1);
        if !cluster.node_online(reader) {
            continue;
        }
        let Ok(info) = store.stat(cluster.cache(reader), &file_name(k)) else {
            continue;
        };
        while let Some(&(version, sent_at)) = outstanding.front() {
            if version > info.version {
                break;
            }
            outstanding.pop_front();
            let lat = now.0.saturating_sub(sent_at.0);
            tracks[1].stats.latency.record(lat);
            tracks[1].stats.completed += 1;
            tracks[1].completed_this_tick += 1;
            tel.record(t_hists[1], lat);
            tel.inc(t_completions);
        }
    }

    // socket: server echoes requests; clients complete on the echo.
    if cluster.node_online(server) {
        while let Some(req) = cluster.sock_recv(server, SERVER_PORT) {
            ledger.drained(server, &req.data[..14]);
            let _ = cluster.sock_send(server, SERVER_PORT, req.from, &req.data);
        }
    }
    for client in 0..server {
        if !cluster.node_online(client) {
            continue;
        }
        while let Some(echo) = cluster.sock_recv(client, CLIENT_PORT) {
            let ts = u64::from_be_bytes(echo.data[14..22].try_into().expect("echo carries ts"));
            let lat = now.0.saturating_sub(ts);
            *socket_in_flight = socket_in_flight.saturating_sub(1);
            tracks[2].stats.latency.record(lat);
            tracks[2].stats.completed += 1;
            tracks[2].completed_this_tick += 1;
            tel.record(t_hists[2], lat);
            tel.inc(t_completions);
        }
    }

    // threads: collect finished tasks (frees slots network-wide).
    let slots: Vec<u32> = tasks_in_flight.keys().copied().collect();
    for slot in slots {
        let (submitter, sent_at) = tasks_in_flight[&slot];
        if !cluster.node_online(submitter) {
            continue;
        }
        if cluster.collect_remote(submitter, slot).is_some() {
            tasks_in_flight.remove(&slot);
            let lat = now.0.saturating_sub(sent_at.0);
            tracks[3].stats.latency.record(lat);
            tracks[3].stats.completed += 1;
            tracks[3].completed_this_tick += 1;
            tel.record(t_hists[3], lat);
            tel.inc(t_completions);
        }
    }

    // sem: acquisitions since last pass (latency folded in at the end).
    if let Some(rep) = cluster.sem_report() {
        let delta = rep.acquisitions.saturating_sub(*sem_seen);
        *sem_seen = rep.acquisitions;
        tracks[4].completed_this_tick += delta;
    }
}

fn check_invariants(
    invariants: &[Box<dyn Invariant>],
    phase: Phase,
    step: u32,
    cluster: &Cluster,
    ledger: &Ledger,
    violations: &mut Vec<String>,
    tripped: &mut Vec<&'static str>,
) {
    let ctx = CheckCtx {
        phase,
        step,
        now: cluster.now(),
        cluster,
        ledger,
        policy: None,
    };
    for inv in invariants {
        if tripped.contains(&inv.name()) {
            continue; // report each invariant once
        }
        if let Err(detail) = inv.check(&ctx) {
            tripped.push(inv.name());
            violations.push(format!("{}: {detail}", inv.name()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampnet_chaos::FaultOp;

    fn small_spec() -> LoadSpec {
        let mut spec = LoadSpec::standard(8_000, ArrivalProcess::Poisson);
        spec.ticks = 20;
        spec
    }

    #[test]
    fn healthy_baseline_passes_standard_slos() {
        let report = run(ClusterConfig::small(6).with_seed(0xA3B1), &small_spec());
        assert!(report.all_slos_pass(), "{}", report.summary());
        // Every class saw real traffic.
        for c in &report.classes {
            assert!(c.dispatched > 0, "{} never dispatched", c.class);
            assert!(c.completed > 0, "{} never completed", c.class);
        }
    }

    #[test]
    fn same_seed_byte_identical_report() {
        let spec = small_spec();
        let a = run(ClusterConfig::small(6).with_seed(0x51ED), &spec);
        let b = run(ClusterConfig::small(6).with_seed(0x51ED), &spec);
        assert_eq!(a.to_json(), b.to_json());
        let c = run(ClusterConfig::small(6).with_seed(0x51EE), &spec);
        assert_ne!(a.to_json(), c.to_json(), "seed must matter");
    }

    #[test]
    fn heavy_tail_and_diurnal_also_run_clean() {
        for process in [
            ArrivalProcess::Pareto { alpha: 1.5 },
            ArrivalProcess::Diurnal {
                period: SimDuration::from_millis(2),
                swing: 0.8,
            },
        ] {
            let mut spec = LoadSpec::standard(32_000, process);
            spec.ticks = 20;
            let report = run(ClusterConfig::small(6).with_seed(0xA3B1), &spec);
            assert!(report.all_slos_pass(), "{}", report.summary());
        }
    }

    /// The healthy `LoadSpec::standard` sweep — every arrival process
    /// × modeled population at seed `0xA3B1` — pinned cell by cell.
    /// The report is a pure function of (seed, spec), so any drift is
    /// a behaviour change somewhere in the stack under load.
    #[test]
    fn standard_sweep_cells_are_pinned() {
        let poisson = ArrivalProcess::Poisson;
        let pareto = ArrivalProcess::Pareto { alpha: 1.5 };
        let diurnal = ArrivalProcess::Diurnal {
            period: SimDuration::from_millis(2),
            swing: 0.8,
        };
        for (process, population, digest) in [
            (poisson, 1_000, 0x5675_e698_0814_213d_u64),
            (poisson, 32_000, 0x0284_488c_bc90_c15d),
            (poisson, 1_000_000, 0x287b_9ae6_6c4f_a733),
            (pareto, 1_000, 0x273c_d590_fc30_f034),
            (pareto, 32_000, 0x4712_9532_556d_8e25),
            (pareto, 1_000_000, 0xead1_b3ed_d3d7_bb4d),
            (diurnal, 1_000, 0x6986_4c71_f7ec_2a31),
            (diurnal, 32_000, 0x5d56_6371_5a49_3105),
            (diurnal, 1_000_000, 0x0e2e_a533_ad51_bc39),
        ] {
            let spec = LoadSpec::standard(population, process);
            let report = run(ClusterConfig::small(6).with_seed(0xA3B1), &spec);
            let cell = format!("{}/{population}", process.name());
            assert!(report.all_slos_pass(), "{cell}: {}", report.summary());
            assert_eq!(report.digest(), digest, "{cell}: got {:#018x}", report.digest());
        }
    }

    #[test]
    fn population_scales_offered_not_cost() {
        let spec_small = small_spec();
        let mut spec_big = small_spec();
        spec_big.population = 1_000_000;
        let small = run(ClusterConfig::small(6).with_seed(7), &spec_small);
        let big = run(ClusterConfig::small(6).with_seed(7), &spec_big);
        let offered_small: u64 = small.classes.iter().map(|c| c.offered).sum();
        let offered_big: u64 = big.classes.iter().map(|c| c.offered).sum();
        assert!(offered_big > 50 * offered_small, "offered load must track population");
        // Batched dispatch keeps driven work bounded by cap × ticks.
        let cap = spec_big.batch_cap * spec_big.ticks as u64;
        for c in &big.classes {
            if c.class != "sem" {
                assert!(c.dispatched <= cap, "{} dispatched {}", c.class, c.dispatched);
            }
        }
    }

    #[test]
    fn crash_chaos_composes_and_reports_degradation() {
        let mut spec = small_spec();
        spec.faults = vec![
            FaultEvent {
                at: SimDuration::from_micros(400),
                op: FaultOp::CrashNode(2),
            },
            FaultEvent {
                at: SimDuration::from_micros(1200),
                op: FaultOp::Rejoin(2),
            },
        ];
        let report = run(ClusterConfig::small(6).with_seed(0xC4A5), &spec);
        // The run must finish and stay invariant-clean: crashing a
        // client degrades service, never correctness.
        assert!(report.violations.is_empty(), "{}", report.summary());
    }
}
