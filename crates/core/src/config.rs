//! Cluster configuration and the calibrated timing model.

use ampnet_cache::RegionId;
use ampnet_dk::{AssimilationParams, CompatPolicy, Features};
use ampnet_phy::LinkParams;
use ampnet_ring::{PacingMode, RingNodeParams};
use ampnet_roster::RosterParams;
use ampnet_sim::SimDuration;
use std::collections::BTreeMap;

/// Every timing constant of the simulation in one place (DESIGN.md §5).
/// Experiments print the model they ran under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Serial line rate in baud (8b/10b encoded bits per second).
    pub baud: u64,
    /// Register-insertion transit latency per node (hardware path).
    pub node_latency: SimDuration,
    /// Rostering protocol constants.
    pub roster: RosterParams,
    /// Assimilation phase costs.
    pub assimilation: AssimilationParams,
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel {
            baud: ampnet_phy::FC_GIGABIT_BAUD,
            node_latency: SimDuration::from_nanos(60),
            roster: RosterParams::default(),
            assimilation: AssimilationParams::default(),
        }
    }
}

impl TimingModel {
    /// Link parameters for a hop of `length_m` metres of fiber.
    pub fn link(&self, length_m: f64) -> LinkParams {
        LinkParams {
            baud: self.baud,
            length_m,
        }
    }
}

/// Which plant family the cluster is built on.
///
/// `Crossbar` (the default) reproduces the paper's plant exactly;
/// `Torus3d` and `FoldedClos` swap in the topology-zoo families from
/// `ampnet-topo` while the entire stack above (rostering, transport,
/// chaos) runs unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlantSpec {
    /// Node×switch crossbar, `n_nodes` × `n_switches`.
    Crossbar,
    /// 3D torus of the given dimensions (their product must equal
    /// `n_nodes`); `n_switches` is ignored.
    Torus3d {
        /// Torus extent per dimension.
        dims: [usize; 3],
    },
    /// Folded Clos with `leaves` leaf and `spines` spine switches;
    /// `n_switches` is ignored.
    FoldedClos {
        /// Leaf switch count (nodes attach round-robin).
        leaves: usize,
        /// Spine switch count.
        spines: usize,
    },
}

/// Full cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of host nodes (2..=255).
    pub n_nodes: usize,
    /// Redundant switches: 2 (dual) or 4 (quad) per slides 14–15.
    pub n_switches: usize,
    /// Plant family (default: the paper's crossbar).
    pub plant: PlantSpec,
    /// Fiber length of every node–switch link, metres.
    pub fiber_length_m: f64,
    /// Deterministic seed.
    pub seed: u64,
    /// Network cache regions every node defines at boot, by id.
    pub cache_regions: BTreeMap<RegionId, u32>,
    /// Timing constants.
    pub timing: TimingModel,
    /// MAC configuration (insertion buffer, pacing, streams).
    pub mac: RingNodeParams,
    /// Version policy the network enforces on joiners.
    pub compat: CompatPolicy,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            n_nodes: 8,
            n_switches: 4,
            plant: PlantSpec::Crossbar,
            fiber_length_m: 100.0,
            seed: 0xA3B1,
            cache_regions: BTreeMap::from([(0, 64 * 1024)]),
            timing: TimingModel::default(),
            mac: RingNodeParams {
                n_streams: 8,
                pacing: PacingMode::Adaptive(Default::default()),
                ..Default::default()
            },
            compat: CompatPolicy {
                required_major: 1,
                min_minor: 0,
                required_features: Features::NONE,
            },
        }
    }
}

impl ClusterConfig {
    /// A quick small cluster for tests.
    pub fn small(n_nodes: usize) -> Self {
        ClusterConfig {
            n_nodes,
            ..Default::default()
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style fiber length override.
    pub fn with_fiber(mut self, m: f64) -> Self {
        self.fiber_length_m = m;
        self
    }

    /// Builder-style region override. An id listed twice keeps its
    /// last size.
    pub fn with_regions(mut self, regions: Vec<(RegionId, u32)>) -> Self {
        self.cache_regions = regions.into_iter().collect();
        self
    }

    /// Builder-style plant-family override. For `Torus3d`, `n_nodes`
    /// is set to the product of the dimensions.
    pub fn with_plant(mut self, plant: PlantSpec) -> Self {
        if let PlantSpec::Torus3d { dims } = plant {
            self.n_nodes = dims[0] * dims[1] * dims[2];
        }
        self.plant = plant;
        self
    }

    /// Build the physical plant this configuration describes.
    pub fn build_plant(&self) -> ampnet_topo::Plant {
        match self.plant {
            PlantSpec::Crossbar => {
                ampnet_topo::Plant::crossbar(self.n_nodes, self.n_switches, self.fiber_length_m)
            }
            PlantSpec::Torus3d { dims } => {
                assert_eq!(
                    dims[0] * dims[1] * dims[2],
                    self.n_nodes,
                    "torus dims must multiply to n_nodes"
                );
                ampnet_topo::Plant::torus3d(dims, self.fiber_length_m)
            }
            PlantSpec::FoldedClos { leaves, spines } => {
                ampnet_topo::Plant::folded_clos(self.n_nodes, leaves, spines, self.fiber_length_m)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = ClusterConfig::default();
        assert_eq!(c.n_nodes, 8);
        assert_eq!(c.n_switches, 4);
        assert_eq!(c.mac.n_streams, 8);
    }

    #[test]
    fn builders() {
        let c = ClusterConfig::small(4)
            .with_seed(7)
            .with_fiber(1000.0)
            .with_regions(vec![(1, 128)]);
        assert_eq!(c.n_nodes, 4);
        assert_eq!(c.seed, 7);
        assert_eq!(c.fiber_length_m, 1000.0);
        assert_eq!(c.cache_regions, BTreeMap::from([(1, 128)]));
    }

    #[test]
    fn plant_spec_builds_each_family() {
        let c = ClusterConfig::default();
        assert_eq!(c.plant, PlantSpec::Crossbar);
        assert_eq!(c.build_plant().family(), "crossbar");

        let t = ClusterConfig::small(4).with_plant(PlantSpec::Torus3d { dims: [2, 2, 2] });
        assert_eq!(t.n_nodes, 8, "torus dims set the node count");
        assert_eq!(t.build_plant().family(), "torus3d");

        let f = ClusterConfig::small(6).with_plant(PlantSpec::FoldedClos {
            leaves: 2,
            spines: 2,
        });
        assert_eq!(f.build_plant().family(), "folded-clos");
        assert_eq!(f.build_plant().n_switches(), 4);
    }

    #[test]
    fn link_derivation() {
        let t = TimingModel::default();
        let l = t.link(500.0);
        assert_eq!(l.baud, ampnet_phy::FC_GIGABIT_BAUD);
        assert_eq!(l.length_m, 500.0);
    }
}
