//! # ampnet-topo — redundant switched topologies
//!
//! The physical plant of slides 14–15 — nodes cabled to 2 (dual) or 4
//! (quad) redundant crossbar switches — and its generalizations, with
//! fail-stop failures on nodes, switching elements and individual
//! fibers. The crate answers the question rostering must answer on the
//! wire: *what is the largest logical ring constructible right now?*
//!
//! * [`Plant`] — the one plant representation: nodes, switching
//!   elements and three fiber classes, built by the
//!   [`Plant::crossbar`], [`Plant::torus3d`] and [`Plant::folded_clos`]
//!   generators; failure injection, hop routes and fiber lengths.
//! * [`Plant::largest_ring`]/[`PlantRing`] — maximum logical ring with
//!   per-hop routes and validity checking. Two solvers, picked by the
//!   plant's shape: the Eulerian multigraph search (exact at any node
//!   count on single-stage plants of ≤ 8 switches) and a canonical DFS
//!   (any plant; exact up to [`GRAPH_EXACT_THRESHOLD`] nodes).
//! * [`montecarlo`] — the failure vocabulary ([`montecarlo::Component`])
//!   and random failure sweeps for the E7 redundancy experiment (dual
//!   vs quad survivability).
//! * [`pathing`] — the shared BFS distance helper used by plant
//!   routing and multi-segment datagram routing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod availability;
pub mod montecarlo;
pub mod pathing;
mod plant;
mod ring_solver;

pub use plant::{
    HopRoute, NodeId, Plant, PlantRing, SwitchId, SwitchPath, GRAPH_EXACT_THRESHOLD,
    GRAPH_HEURISTIC_BUDGET,
};

/// The two ring solvers behind [`Plant::largest_ring`], callable
/// directly so the property tests can check one against the other.
/// Not a knob: production code has exactly one entry point, which
/// picks the solver from the plant's shape.
#[doc(hidden)]
pub mod solvers {
    pub use crate::plant::dfs_largest_ring;
    pub use crate::ring_solver::mask_largest_ring;
}
