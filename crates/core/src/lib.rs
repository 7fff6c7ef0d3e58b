//! # ampnet-core — the AmpNet cluster
//!
//! The facade crate of the reproduction: a [`Cluster`] wires the
//! physical plant, register-insertion MACs, network cache replicas,
//! rostering, AmpDK lifecycle and the AmpDC services into one
//! deterministic discrete-event simulation, and exposes the paper's
//! scenarios — fault injection, self-healing, assimilation and
//! application failover — as a library API.
//!
//! ```
//! use ampnet_core::{Cluster, ClusterConfig};
//! use ampnet_sim::SimDuration;
//!
//! let mut cluster = Cluster::new(ClusterConfig::small(4));
//! cluster.run_for(SimDuration::from_millis(5)); // boot completes
//! assert!(cluster.ring_up());
//! assert_eq!(cluster.ring().len(), 4);
//!
//! cluster.send_message(0, 2, 0, b"hello over the ring");
//! cluster.run_for(SimDuration::from_millis(1));
//! let d = cluster.pop_message(2).expect("delivered");
//! assert_eq!(d.payload, b"hello over the ring");
//! assert_eq!(cluster.total_drops(), 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod apps;
mod cell_traffic;
mod cluster;
mod collectives;
mod config;
mod diagnostics;
mod membership;
mod multiseg;
mod observe;
mod planner;
mod telemetry;
mod transport;
#[cfg(test)]
mod driver_agreement;

pub use apps::{
    CounterAppConfig, CounterAppReport, ResumeRecord, SemStressConfig, SemStressReport,
    SeqProbeConfig, SeqProbeReport,
};
pub use cell_traffic::CellTraffic;
pub use cluster::{Cluster, RosterEvent, RosterReason};
pub use observe::{ObservedEvent, Trace};
pub use diagnostics::Certification;
pub use multiseg::{
    Bridge, GlobalAddr, GlobalDatagram, MultiSegment, ParallelMode, SliceStats, ROUTE_STREAM,
};
pub use planner::{plan_boundary, Lookahead, SlicePlanner, FUSE_AFTER, FUSE_FACTOR, MAX_SLICE_GROWTH};
pub use collectives::COLLECTIVE_STREAM;
pub use config::{ClusterConfig, PlantSpec, TimingModel};
pub use ampnet_services::mpi::ReduceOp;
pub use ampnet_services::socket::{Received, SockAddr, SocketError};
pub use ampnet_packet::build::InterruptPayload;
pub use ampnet_services::files::{FileError, FileStore, FileStoreLayout};
pub use ampnet_services::threads::{TaskError, TaskKind};

// Re-export the vocabulary types callers need.
pub use ampnet_cache::seqlock_msg::{ReadOutcome, RecordLayout};
pub use ampnet_cache::{BackoffPolicy, SemaphoreAddr};
pub use ampnet_dk::{
    FailoverPolicy, Features, JoinRequest, RecoveryRule, Version,
};
pub use ampnet_sim::{SimDuration, SimTime};
pub use ampnet_telemetry::{MetricsSnapshot, Telemetry};
pub use ampnet_topo::montecarlo::Component;
pub use ampnet_topo::{HopRoute, NodeId, Plant, PlantRing, SwitchId};
