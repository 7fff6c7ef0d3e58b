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
//! The run is a `LoadRun` on the chaos [`Harness`] (cluster, ledger,
//! crash-doom cursor, invariant runner). Each tick, in a fixed order
//! for determinism: dispatch (pubsub → cache → socket → threads),
//! advance the cluster by one tick, harvest completions (subscriber
//! polls, file stats, socket drains, task collects, semaphore deltas),
//! doom crashed endpoints in the ledger, then check
//! [`standard_invariants`] at [`Phase::Step`]. After the measurement
//! window a settle phase keeps harvesting until in-flight work drains,
//! then the [`Phase::End`] check is binding.

use std::collections::{BTreeMap, VecDeque};

use ampnet_chaos::{standard_invariants, FaultEvent, Harness, Phase};
use ampnet_core::{
    BackoffPolicy, Cluster, ClusterConfig, FileStore, FileStoreLayout, SemStressConfig,
    SemaphoreAddr, SockAddr, TaskKind, Telemetry,
};
use ampnet_services::subscribe::{PollOutcome, Subscriber, TopicLayout};
use ampnet_sim::{SimDuration, SimRng, SimTime};
use ampnet_telemetry::{defs, CounterHandle, HistHandle, GLOBAL};

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

/// Run a workload, sharing `tel` so the load-plane instruments land in
/// the same registry as the cluster's own (the bench metrics exercise
/// uses this to prove every `defs::LOAD_*` def is live).
pub fn run_with(cfg: ClusterConfig, spec: &LoadSpec, tel: &Telemetry) -> LoadReport {
    let mut run = LoadRun::new(cfg, spec, tel);

    // Boot, assimilation, region convergence; then faults first and
    // the semaphore storm second: same-instant events keep this queue
    // order (fault offsets are relative to measurement start).
    run.h.run_for(spec.warmup);
    run.h.apply(&spec.faults);
    run.start_sem_storm();
    let meas_start = run.h.cluster.now();

    for tick_i in 0..spec.ticks {
        run.dispatch(tick_i);
        run.h.run_for(spec.tick);
        run.harvest();
        run.h.doom_elapsed();
        run.tick_done();
        run.h.check(Phase::Step, tick_i);
    }

    // Settle: keep harvesting while the pipeline drains.
    let tick_ns = spec.tick.as_nanos();
    for _ in 0..spec.settle.as_nanos().div_ceil(tick_ns.max(1)) {
        run.h.run_for(spec.tick);
        run.harvest();
        run.h.doom_elapsed();
    }

    // Quiesce: the last settle harvest may itself have emitted packets
    // (server echoes, slot-freeing collects); give them time to
    // replicate, then take one final harvest so those completions are
    // not miscounted as failures.
    run.h.run_for(SimDuration::from_nanos(2 * tick_ns));
    run.harvest();
    run.h.run_for(SimDuration::from_nanos(2 * tick_ns));

    run.close_out();
    run.h.check(Phase::End, spec.ticks);
    run.report(meas_start)
}

/// Class indices into [`Meters::tracks`], in [`catalog::ALL`] order.
const PUBSUB: usize = 0;
const CACHE: usize = 1;
const SOCKET: usize = 2;
const THREADS: usize = 3;
const SEM: usize = 4;

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
}

/// The per-class counters and the telemetry instruments mirroring them
/// (registered even if never bumped, so the `defs::ALL` coverage check
/// sees them). Its own struct so a harvest loop that borrows one class's
/// state can still record completions.
struct Meters<'a> {
    tracks: Vec<ClassTrack>,
    tel: &'a Telemetry,
    arrivals: CounterHandle,
    completions: CounterHandle,
    lagged: CounterHandle,
    hists: [HistHandle; 5],
}

impl Meters<'_> {
    fn stats(&mut self, class: usize) -> &mut ClassStats {
        &mut self.tracks[class].stats
    }

    /// One operation of `class` completed `lat` ns after its dispatch.
    fn complete(&mut self, class: usize, lat: u64) {
        let track = &mut self.tracks[class];
        track.stats.latency.record(lat);
        track.stats.completed += 1;
        track.completed_this_tick += 1;
        self.tel.record(self.hists[class], lat);
        self.tel.inc(self.completions);
    }
}

/// One workload run: the chaos [`Harness`] (cluster, ledger, doom
/// cursor, standard invariant catalogue) plus the state of the five
/// service classes.
struct LoadRun<'a> {
    spec: &'a LoadSpec,
    seed: u64,
    h: Harness,
    n_nodes: u8,
    m: Meters<'a>,
    /// One arrival process per class, on independent substreams.
    gens: Vec<ArrivalGen>,
    /// Dispatch-choice stream (topic, file, client, submitter, …).
    rng: SimRng,
    // pubsub: per-topic publish sequence; two subscribers per topic.
    topic_seq: Vec<u64>,
    subs_per_topic: u64,
    subscribers: Vec<(u8, Subscriber)>,
    // cache: per-file name, write count and outstanding (version,
    // sent_at).
    store: FileStore,
    file_names: Vec<String>,
    file_writes: Vec<u32>,
    file_outstanding: Vec<VecDeque<(u32, SimTime)>>,
    // socket: server on the last node, every other node a client;
    // requests awaiting their echo.
    socket_in_flight: u64,
    // threads: slot → (submitter, submitted_at).
    tasks_in_flight: BTreeMap<u32, (u8, SimTime)>,
    task_cursor: u32,
    // sem: acquisitions the storm will make / has made so far.
    sem_target: u64,
    sem_seen: u64,
}

impl<'a> LoadRun<'a> {
    /// Lay out the regions, boot the cluster and set up every class.
    fn new(cfg: ClusterConfig, spec: &'a LoadSpec, tel: &'a Telemetry) -> Self {
        assert!(spec.ticks > 0, "need at least one measurement tick");
        let seed = cfg.seed;
        let n_nodes = cfg.n_nodes as u8;
        assert!(n_nodes >= 3, "workload needs at least 3 nodes");

        let files = FileStoreLayout {
            region: FILE_REGION,
            max_files: N_FILES as u32,
            heap_bytes: 16 * 1024,
        };
        let cfg = cfg.with_regions(vec![
            (0, 64 * 1024),
            (TOPIC_REGION, topic(N_TOPICS as usize).base),
            (FILE_REGION, files.footprint()),
            (TASK_REGION, TASK_SLOTS * 16),
        ]);
        let mut cluster = Cluster::new(cfg);
        cluster.enable_telemetry_with(tel);
        cluster.enable_threads(TASK_REGION, TASK_SLOTS);

        let m = Meters {
            tracks: catalog::ALL.iter().map(|w| ClassTrack::new(w.name)).collect(),
            tel,
            arrivals: tel.counter(&defs::LOAD_ARRIVALS, GLOBAL),
            completions: tel.counter(&defs::LOAD_COMPLETIONS, GLOBAL),
            lagged: tel.counter(&defs::LOAD_PUBSUB_LAGGED, GLOBAL),
            hists: [
                tel.histogram(&defs::LOAD_PUBSUB_NS, GLOBAL),
                tel.histogram(&defs::LOAD_CACHE_NS, GLOBAL),
                tel.histogram(&defs::LOAD_SOCKET_NS, GLOBAL),
                tel.histogram(&defs::LOAD_THREADS_NS, GLOBAL),
                tel.histogram(&defs::LOAD_SEM_NS, GLOBAL),
            ],
        };

        let root = SimRng::new(seed);
        let class_rate = spec.population as f64 * spec.per_client_rate / catalog::ALL.len() as f64;
        let gens = catalog::ALL
            .iter()
            .map(|w| ArrivalGen::new(spec.process, class_rate, root.derive(w.name)))
            .collect();
        let rng = root.derive("load/dispatch");

        let subs_per_topic = 2u64.min(n_nodes as u64 - 1);
        let mut subscribers = vec![];
        for t in 0..N_TOPICS as usize {
            let publisher = (t as u8) % n_nodes;
            for s in 1..=subs_per_topic as u8 {
                subscribers.push(((publisher + s) % n_nodes, Subscriber::new(topic(t))));
            }
        }

        let server = n_nodes - 1;
        cluster.sock_bind(server, SERVER_PORT).expect("server port free");
        for client in 0..server {
            cluster.sock_bind(client, CLIENT_PORT).expect("client port free");
        }

        LoadRun {
            spec,
            seed,
            h: Harness::new(cluster, standard_invariants()),
            n_nodes,
            m,
            gens,
            rng,
            topic_seq: vec![0; N_TOPICS as usize],
            subs_per_topic,
            subscribers,
            store: FileStore::new(files),
            file_names: (0..N_FILES).map(|k| format!("k{k:02}")).collect(),
            file_writes: vec![0; N_FILES as usize],
            file_outstanding: (0..N_FILES).map(|_| VecDeque::new()).collect(),
            socket_in_flight: 0,
            tasks_in_flight: BTreeMap::new(),
            task_cursor: 0,
            sem_target: 0,
            sem_seen: 0,
        }
    }

    /// sem: a closed-loop contention storm riding the whole window.
    fn start_sem_storm(&mut self) {
        let contenders: Vec<u8> = (1..self.n_nodes.min(4)).collect();
        let rounds = 8u32;
        self.sem_target = contenders.len() as u64 * rounds as u64;
        self.h.cluster.start_sem_stress(SemStressConfig {
            addr: SemaphoreAddr { home: 0, region: 0, offset: SEM_OFFSET },
            contenders,
            rounds,
            crit: SimDuration::from_micros(20),
            backoff: BackoffPolicy::default(),
        });
    }

    /// One tick of open-loop load: count arrivals at full population
    /// fidelity, then drive at most `batch_cap` operations per class,
    /// in fixed class order. An operation that cannot be driven counts
    /// as failed (a publish: once per subscriber that will miss it).
    fn dispatch(&mut self, tick_i: u32) {
        let until = (tick_i as u64 + 1) * self.spec.tick.as_nanos();
        let mut batch = [0u64; 5];
        for (c, gen) in self.gens.iter_mut().enumerate() {
            let n = gen.arrivals_until(until);
            batch[c] = n.min(self.spec.batch_cap);
            self.m.stats(c).offered += n;
            self.m.tel.add(self.m.arrivals, n);
        }
        self.drive(PUBSUB, batch[PUBSUB], self.subs_per_topic, Self::publish);
        self.drive(CACHE, batch[CACHE], 1, Self::write_file);
        self.drive(SOCKET, batch[SOCKET], 1, Self::send_request);
        self.drive(THREADS, batch[THREADS], 1, Self::spawn_task);
    }

    /// Run `op` `n` times for `class`: each success is one dispatched
    /// operation, each refusal `failures` failed ones.
    fn drive(&mut self, class: usize, n: u64, failures: u64, op: fn(&mut Self) -> bool) {
        for _ in 0..n {
            if op(self) {
                self.m.stats(class).dispatched += 1;
            } else {
                self.m.stats(class).failed += failures;
            }
        }
    }

    /// pubsub: publish a timestamped record on a random topic.
    fn publish(&mut self) -> bool {
        let cluster = &mut self.h.cluster;
        let t = self.rng.below(N_TOPICS) as usize;
        let publisher = (t as u8) % self.n_nodes;
        if !cluster.node_online(publisher) {
            return false;
        }
        let seq = self.topic_seq[t];
        let mut payload = [0u8; TOPIC_SLOT_LEN as usize];
        payload[..8].copy_from_slice(&cluster.now().0.to_be_bytes());
        payload[8..16].copy_from_slice(&seq.to_be_bytes());
        let topic = topic(t);
        let head = (seq + 1).to_be_bytes();
        let published = cluster.record_write(publisher, topic.slot_record(seq), &payload).is_ok()
            && cluster.record_write(publisher, topic.head_record(), &head).is_ok();
        self.topic_seq[t] += u64::from(published);
        published
    }

    /// cache: overwrite one of the cycled files, confirmed later via a
    /// paired reader's local stat. Node 0 is the sole writer: the file
    /// store's heap cursor is a shared word, and concurrent cursor
    /// bumps from different nodes do not commute (AmpFiles'
    /// single-writer discipline; multi-writer stores coordinate with a
    /// network semaphore).
    fn write_file(&mut self) -> bool {
        let cluster = &mut self.h.cluster;
        let k = self.rng.below(N_FILES) as usize;
        let writer = 0u8;
        if !cluster.node_online(writer) {
            return false;
        }
        let mut payload = [0u8; FILE_PAYLOAD];
        payload[..8].copy_from_slice(&cluster.now().0.to_be_bytes());
        payload[8..12].copy_from_slice(&self.file_writes[k].to_be_bytes());
        let written = cluster.file_write(writer, &self.store, &self.file_names[k], &payload).is_ok();
        if written {
            self.file_writes[k] += 1;
            self.file_outstanding[k].push_back((self.file_writes[k], cluster.now()));
        }
        written
    }

    /// socket: ledger-tagged request to the server, echoed back.
    fn send_request(&mut self) -> bool {
        let Harness { cluster, ledger, .. } = &mut self.h;
        let server = self.n_nodes - 1;
        let client = self.rng.below(server as u64) as u8;
        if !cluster.node_online(client) || !cluster.node_online(server) {
            return false;
        }
        let mut payload = ledger.send(client, server, cluster.now());
        payload.extend_from_slice(&cluster.now().0.to_be_bytes());
        let dst = SockAddr { node: server, port: SERVER_PORT };
        let sent = cluster.sock_send(client, CLIENT_PORT, dst, &payload).is_ok();
        self.socket_in_flight += sent as u64;
        sent
    }

    /// threads: remote task into the next round-robin slot. The
    /// rotation keeps a freshly collected slot out of use for ~56
    /// submissions, so the collector's slot-zeroing broadcast has long
    /// since replicated before another node writes the slot.
    fn spawn_task(&mut self) -> bool {
        let cluster = &mut self.h.cluster;
        let n_nodes = self.n_nodes;
        let slot = (0..TASK_SLOTS)
            .map(|i| (self.task_cursor + i) % TASK_SLOTS)
            .find(|s| !self.tasks_in_flight.contains_key(s));
        let Some(slot) = slot else {
            return false; // table saturated: shed
        };
        self.task_cursor = (slot + 1) % TASK_SLOTS;
        let submitter = self.rng.below(n_nodes as u64) as u8;
        let target = (submitter + 1 + self.rng.below(n_nodes as u64 - 1) as u8) % n_nodes;
        if !cluster.node_online(submitter) || !cluster.node_online(target) {
            return false;
        }
        let arg = self.rng.below(u32::MAX as u64) as u32;
        let spawned = cluster.spawn_remote(submitter, slot, TaskKind::Square, target, arg).is_ok();
        if spawned {
            self.tasks_in_flight.insert(slot, (submitter, cluster.now()));
        }
        spawned
    }

    /// One harvest pass: collect every completion the cluster has made
    /// visible since the last pass.
    fn harvest(&mut self) {
        let Harness { cluster, ledger, .. } = &mut self.h;
        let now = cluster.now().0;

        // pubsub: poll every subscriber's local replica.
        for (node, sub) in self.subscribers.iter_mut() {
            let Some(replica) = cluster.cache(*node).filter(|_| cluster.node_online(*node)) else {
                continue;
            };
            let (skipped, records) = match sub.poll(replica) {
                Ok(PollOutcome::Records(r)) => (0, r),
                Ok(PollOutcome::Lagged { skipped, records }) => (skipped, records),
                Ok(PollOutcome::Empty) | Err(_) => continue,
            };
            self.m.stats(PUBSUB).failed += skipped;
            self.m.tel.add(self.m.lagged, skipped);
            for rec in records {
                let ts = u64::from_be_bytes(rec[..8].try_into().expect("slot ≥ 8 bytes"));
                self.m.complete(PUBSUB, now.saturating_sub(ts));
            }
        }

        // cache: a write completes when the paired reader's replica
        // shows its version.
        for (k, outstanding) in self.file_outstanding.iter_mut().enumerate() {
            if outstanding.is_empty() {
                continue;
            }
            // Paired reader: any node but the writer (node 0).
            let reader = 1 + (k as u8) % (self.n_nodes - 1);
            let Some(replica) = cluster
                .cache(reader)
                .filter(|_| cluster.node_online(reader))
            else {
                continue;
            };
            let Ok(info) = self.store.stat(replica, &self.file_names[k]) else {
                continue;
            };
            while let Some(&(version, sent_at)) = outstanding.front() {
                if version > info.version {
                    break;
                }
                outstanding.pop_front();
                self.m.complete(CACHE, now.saturating_sub(sent_at.0));
            }
        }

        // socket: server echoes requests; clients complete on the echo.
        let server = self.n_nodes - 1;
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
                self.socket_in_flight = self.socket_in_flight.saturating_sub(1);
                self.m.complete(SOCKET, now.saturating_sub(ts));
            }
        }

        // threads: collect finished tasks (frees slots network-wide).
        let m = &mut self.m;
        self.tasks_in_flight.retain(|&slot, &mut (submitter, sent_at)| {
            let done = cluster.node_online(submitter)
                && matches!(cluster.collect_remote(submitter, slot), Ok(Some(_)));
            if done {
                m.complete(THREADS, now.saturating_sub(sent_at.0));
            }
            !done
        });

        // sem: acquisitions since last pass (latency folded in at the end).
        if let Some(rep) = cluster.sem_report() {
            let delta = rep.acquisitions.saturating_sub(self.sem_seen);
            self.sem_seen = rep.acquisitions;
            self.m.tracks[SEM].completed_this_tick += delta;
        }
    }

    /// pubsub: deliveries published but neither confirmed nor lagged past.
    fn unconfirmed_deliveries(&self) -> u64 {
        let pubsub = &self.m.tracks[PUBSUB].stats;
        let published = self.topic_seq.iter().sum::<u64>() * self.subs_per_topic;
        published.saturating_sub(pubsub.completed + pubsub.failed)
    }

    /// Which classes still have work in flight (degraded-window input).
    fn in_flight(&self) -> [bool; 5] {
        [
            self.unconfirmed_deliveries() > 0,
            self.file_outstanding.iter().any(|q| !q.is_empty()),
            self.socket_in_flight > 0,
            !self.tasks_in_flight.is_empty(),
            self.sem_seen < self.sem_target,
        ]
    }

    /// Close out one tick: a class with work in flight and zero
    /// completions extends its degraded window.
    fn tick_done(&mut self) {
        let in_flight = self.in_flight();
        for (t, busy) in self.m.tracks.iter_mut().zip(in_flight) {
            t.degraded_run = if busy && t.completed_this_tick == 0 { t.degraded_run + 1 } else { 0 };
            t.degraded_max = t.degraded_max.max(t.degraded_run);
            t.completed_this_tick = 0;
        }
    }

    /// Count what is still in flight as failed and fold the semaphore
    /// storm's own report into its class.
    fn close_out(&mut self) {
        self.m.stats(PUBSUB).failed += self.unconfirmed_deliveries();
        let unconfirmed: usize = self.file_outstanding.iter().map(VecDeque::len).sum();
        self.m.stats(CACHE).failed += unconfirmed as u64;
        self.m.stats(SOCKET).failed += self.socket_in_flight;
        self.m.stats(THREADS).failed += self.tasks_in_flight.len() as u64;

        if let Some(rep) = self.h.cluster.sem_report() {
            let sem = self.m.stats(SEM);
            sem.dispatched = rep.acquisitions;
            sem.completed = rep.acquisitions;
            sem.failed = rep.unfinished;
            sem.latency.merge(&rep.acquire_latency);
            // The telemetry copy is rebuilt from quantiles (same count,
            // bucket-resolution values) — Histogram exposes no sample iter.
            let n = rep.acquire_latency.count();
            for i in 0..n {
                let q = (i as f64 + 0.5) / n as f64;
                self.m.tel.record(self.m.hists[SEM], rep.acquire_latency.quantile(q));
            }
            self.m.tel.add(self.m.completions, rep.acquisitions);
        }
    }

    /// Judge the SLOs and assemble the report.
    fn report(self, meas_start: SimTime) -> LoadReport {
        let spec = self.spec;
        let tick_ns = spec.tick.as_nanos();
        let verdicts = spec
            .slos
            .iter()
            .map(|slo| {
                let track = self
                    .m
                    .tracks
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
        let violations = self
            .h
            .violations()
            .iter()
            .map(|v| format!("{}: {}", v.invariant, v.detail))
            .collect();
        LoadReport {
            seed: self.seed,
            population: spec.population,
            process: spec.process.name(),
            ticks: spec.ticks,
            tick_ns,
            classes: self.m.tracks.into_iter().map(|t| t.stats).collect(),
            verdicts,
            violations,
            final_time_ns: self.h.cluster.now().0.saturating_sub(meas_start.0),
        }
    }
}

/// Layout of topic `t`; topics are packed back to back.
fn topic(t: usize) -> TopicLayout {
    let (region, slots, slot_len) = (TOPIC_REGION, TOPIC_SLOTS, TOPIC_SLOT_LEN);
    let first = TopicLayout { region, base: 0, slots, slot_len };
    TopicLayout { base: t as u32 * first.footprint(), ..first }
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

    /// The load run checks the same list `ScenarioBuilder::standard_invariants`
    /// attaches: the engine used to keep a private copy that had
    /// silently dropped `failover-within-policy`.
    #[test]
    fn load_run_checks_the_standard_catalogue() {
        let (spec, tel) = (small_spec(), Telemetry::disabled());
        let names = LoadRun::new(ClusterConfig::small(6), &spec, &tel).h.invariant_names();
        let standard: Vec<_> = standard_invariants().iter().map(|inv| inv.name()).collect();
        assert_eq!(names, standard);
        assert!(names.contains(&"failover-within-policy"), "{names:?}");
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
