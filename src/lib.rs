//! AmpNet — a highly available cluster interconnection network.
//!
//! This is the workspace facade crate: it re-exports the public API of
//! [`ampnet_core`] (cluster building, scenarios, experiments) and the
//! underlying subsystem crates for users who need lower-level access.
//! See `README.md` for a tour and `examples/` for runnable scenarios.
//!
//! The workspace's lint policy is compiler configuration rather than a
//! crate: the root `clippy.toml` bans, the panic lints at the top of
//! each protocol crate, and the tier-1 test `tests/clippy_gate.rs` that
//! runs clippy with warnings denied (DESIGN.md §16).

pub use ampnet_core as core;

pub use ampnet_cache as cache;
pub use ampnet_chaos as chaos;
pub use ampnet_check as check;
pub use ampnet_dk as dk;
pub use ampnet_load as load;
pub use ampnet_packet as packet;
pub use ampnet_phy as phy;
pub use ampnet_ring as ring;
pub use ampnet_roster as roster;
pub use ampnet_services as services;
pub use ampnet_sim as sim;
pub use ampnet_telemetry as telemetry;
pub use ampnet_topo as topo;
