//! Scenario scripting: fault schedules, traffic generators, builder.

use crate::invariant::Invariant;
use ampnet_core::{ClusterConfig, FailoverPolicy, RecordLayout, SemaphoreAddr, SimDuration};
use std::rc::Rc;

/// One fault operation the engine can inject.
///
/// Faults address the layer where the real failure would occur:
/// `CrashNode`/`FailSwitch`/`CutFiber` hit the physical plant (the
/// topology loses a component and rostering heals around it), while
/// `ErrorBurst` is injected at the victim node's **PHY plane** — the
/// `ampnet-ring` `NodeStack` assesses it with the 8b/10b checker and
/// only a detected burst escalates into a topology-level link failure.
///
/// The `CutLinkIndex`/`SpliceLinkIndex`/`FailElement`/`RepairElement`
/// variants address the plant *generically* — by position in its
/// deterministic component enumeration rather than by concrete
/// node/switch id — so the same schedule replays on a crossbar, a 3D
/// torus or a folded Clos without editing the scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultOp {
    /// Power off a node (its traffic is doomed until it rejoins).
    CrashNode(u8),
    /// Fail a switch (partition-style event: every ring member routed
    /// through it loses that hop).
    FailSwitch(u8),
    /// Cut the fiber between a node and a switch.
    CutFiber(u8, u8),
    /// Splice a previously cut fiber.
    SpliceFiber(u8, u8),
    /// Power a failed switch back on.
    RepairSwitch(u8),
    /// Re-assimilate a crashed node (DK join, cache refresh, roster).
    Rejoin(u8),
    /// Bit-error burst delivered to the victim's PHY plane (`errors`
    /// single-bit corruptions replayable from `seed`); escalation is
    /// the plane's own 8b/10b verdict, not the scenario's decision.
    ErrorBurst {
        /// Victim node.
        node: u8,
        /// Replay seed for the corruption positions.
        seed: u64,
        /// Number of single-bit errors.
        errors: u32,
    },
    /// Cut the `k mod L`-th fiber of the plant's link enumeration,
    /// where `L` is the number of fibers. Topology-agnostic: on a
    /// crossbar or folded Clos this lands on a node–switch port fiber,
    /// on a torus it lands on a node–node trunk, so one scenario
    /// replays unchanged across families.
    CutLinkIndex(u32),
    /// Splice the `k mod L`-th fiber of the link enumeration.
    SpliceLinkIndex(u32),
    /// Fail the `k mod S`-th switching element, where `S` is the
    /// plant's element count. A no-op on families without switching
    /// elements (e.g. a direct-trunk torus).
    FailElement(u32),
    /// Repair the `k mod S`-th switching element; no-op when the
    /// family has none.
    RepairElement(u32),
}

/// A fault op at an offset from the start of the (post-warmup) run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Offset from the end of warmup.
    pub at: SimDuration,
    /// The operation.
    pub op: FaultOp,
}

/// A background traffic generator.
#[derive(Debug, Clone, PartialEq)]
pub enum Traffic {
    /// Every online node messages every other online node each step
    /// (the paper's simultaneous all-to-all, slide 7).
    AllToAll {
        /// Message stream.
        stream: u8,
    },
    /// Two nodes exchange a message per step, alternating direction.
    PingPong {
        /// One endpoint.
        a: u8,
        /// The other endpoint.
        b: u8,
        /// Message stream.
        stream: u8,
    },
    /// Every online node writes a fresh generation into a shared cache
    /// region each step; replicas must converge by the end of the run.
    CacheStorm {
        /// Cache region written.
        region: u8,
        /// Bytes per write.
        bytes: u32,
    },
    /// Network-semaphore contention via the D64 atomic protocol.
    SemContention {
        /// Semaphore location.
        addr: SemaphoreAddr,
        /// Contending nodes.
        contenders: Vec<u8>,
        /// Acquire/release rounds per contender.
        rounds: u32,
    },
    /// Guarded seqlock writer/readers on a replicated record.
    SeqlockProbe {
        /// Writing node.
        writer: u8,
        /// Reading nodes.
        readers: Vec<u8>,
        /// Record under test.
        layout: RecordLayout,
    },
    /// The replicated-counter failover application (slide 19).
    CounterFailover {
        /// (node, qualification) control-group members.
        members: Vec<(u8, u32)>,
        /// Failover policy.
        policy: FailoverPolicy,
        /// Cache region holding counter + heartbeat records.
        region: u8,
    },
}

impl Traffic {
    /// All-to-all messaging on the default chaos stream.
    pub fn all_to_all() -> Traffic {
        Traffic::AllToAll { stream: 1 }
    }

    /// Ping-pong between `a` and `b` on the default chaos stream.
    pub fn ping_pong(a: u8, b: u8) -> Traffic {
        Traffic::PingPong { a, b, stream: 1 }
    }

    /// A cache write storm on region 0.
    pub fn cache_storm() -> Traffic {
        Traffic::CacheStorm { region: 0, bytes: 8 }
    }

    /// Semaphore contention among `contenders` (semaphore homed on the
    /// first contender, region 0). An empty set contends for nothing.
    pub fn semaphores(contenders: Vec<u8>, rounds: u32) -> Traffic {
        let home = contenders.first().copied().unwrap_or_default();
        Traffic::SemContention {
            addr: SemaphoreAddr { home, region: 0, offset: 2048 },
            contenders,
            rounds,
        }
    }

    /// A guarded seqlock probe (writer node 0 unless overridden).
    pub fn seqlock(writer: u8, readers: Vec<u8>) -> Traffic {
        Traffic::SeqlockProbe {
            writer,
            readers,
            layout: RecordLayout { region: 0, offset: 1024, data_len: 64 },
        }
    }

    /// The replicated-counter failover app with the default policy.
    pub fn counter_failover(members: Vec<(u8, u32)>) -> Traffic {
        Traffic::CounterFailover { members, policy: FailoverPolicy::default(), region: 0 }
    }
}

/// A fully specified chaos scenario. Build with [`Scenario::builder`];
/// run with [`Scenario::run`] (deterministic for a given config seed)
/// or sweep seeds with [`Scenario::sweep`].
#[derive(Clone)]
pub struct Scenario {
    pub(crate) cfg: ClusterConfig,
    pub(crate) warmup: SimDuration,
    pub(crate) step: SimDuration,
    pub(crate) steps: u32,
    pub(crate) settle: SimDuration,
    pub(crate) faults: Vec<FaultEvent>,
    pub(crate) traffic: Vec<Traffic>,
    pub(crate) invariants: Vec<Rc<dyn Invariant>>,
    pub(crate) trace_capacity: usize,
}

impl Scenario {
    /// Start building a scenario against `cfg`.
    pub fn builder(cfg: ClusterConfig) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                cfg,
                warmup: SimDuration::from_millis(5),
                step: SimDuration::from_millis(5),
                steps: 12,
                settle: SimDuration::from_millis(20),
                faults: vec![],
                traffic: vec![],
                invariants: vec![],
                trace_capacity: 512,
            },
        }
    }

    /// The scheduled faults, in schedule order.
    pub fn faults(&self) -> &[FaultEvent] {
        &self.faults
    }

    /// Total simulated span of one run (warmup + steps + settle).
    pub fn span(&self) -> SimDuration {
        self.warmup + self.step.saturating_mul(self.steps as u64) + self.settle
    }
}

/// Builder for [`Scenario`].
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Boot time before faults and traffic start (default 5 ms).
    pub fn warmup(mut self, d: SimDuration) -> Self {
        self.scenario.warmup = d;
        self
    }

    /// Step length: traffic is emitted and invariants are checked once
    /// per step (default 5 ms).
    pub fn step_len(mut self, d: SimDuration) -> Self {
        self.scenario.step = d;
        self
    }

    /// Number of steps (default 12).
    pub fn steps(mut self, n: u32) -> Self {
        self.scenario.steps = n;
        self
    }

    /// Quiesce time after the last step, before end-of-run invariants
    /// (default 20 ms — enough for outstanding replay to drain).
    pub fn settle(mut self, d: SimDuration) -> Self {
        self.scenario.settle = d;
        self
    }

    /// Lines the run's trace dump keeps (default 512).
    pub fn trace_capacity(mut self, n: usize) -> Self {
        self.scenario.trace_capacity = n;
        self
    }

    /// Schedule `op` at `offset` after warmup.
    pub fn fault_in(mut self, offset: SimDuration, op: FaultOp) -> Self {
        self.scenario.faults.push(FaultEvent { at: offset, op });
        self
    }

    /// Add a traffic generator.
    pub fn traffic(mut self, t: Traffic) -> Self {
        self.scenario.traffic.push(t);
        self
    }

    /// Add an invariant checker.
    pub fn invariant(mut self, inv: impl Invariant + 'static) -> Self {
        self.scenario.invariants.push(Rc::new(inv));
        self
    }

    /// Add the standard catalogue ([`crate::standard_invariants`]).
    pub fn standard_invariants(mut self) -> Self {
        self.scenario.invariants.extend(crate::invariant::standard_invariants());
        self
    }

    /// Finish. Faults are sorted by schedule time (stable, so equal
    /// times keep insertion order).
    pub fn build(mut self) -> Scenario {
        self.scenario
            .faults
            .sort_by_key(|f| f.at.as_nanos());
        self.scenario
    }
}
