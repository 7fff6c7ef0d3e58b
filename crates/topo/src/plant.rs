//! The physical plant: nodes, switching elements and fibers, plus
//! current failure state — one representation for every family.
//!
//! Slides 14–15 show AmpNet's redundant plant: every node has a port
//! to each of 2 (dual) or 4 (quad) central crossbar switches, and the
//! *logical ring* is threaded through whichever paths survive. The
//! rostering algorithm — flood the surviving subgraph, commit the
//! largest logical ring — does not care what the plant looks like, so
//! [`Plant`] is a general graph with three fiber classes (node–switch
//! ports, node–node trunks, switch–switch stages) and the families
//! are just generators over it:
//!
//! * [`Plant::crossbar`] — the paper's plant: every node cabled to
//!   every switch, in ascending switch order.
//! * [`Plant::torus3d`] — APEnet-style direct network: node–node trunk
//!   fibers, no switching element.
//! * [`Plant::folded_clos`] — multistage: nodes cabled to leaf
//!   switches, leaves cabled to every spine.
//!
//! A ring hop is a [`HopRoute`]: the ordered switch path carrying
//! `u → v` (one switch on a crossbar, empty for a direct trunk).
//! [`PlantRing`] stores one route per hop so fiber lengths stay
//! computable after the route breaks (the protocol times tours over
//! the committed ring even while it is damaged).
//!
//! ## Two exact ring solvers, selected by plant shape
//!
//! Longest cycle is NP-hard in general, so [`Plant::largest_ring`]
//! picks the solver that is exact on the plant in front of it, by
//! *shape* (never by the [`Plant::family`] label):
//!
//! * Single-stage plants — no trunks, no stages, ≤ 8 switches — run
//!   the Eulerian multigraph search over switch masks
//!   ([`crate::ring_solver`]). It is exact at any node count because
//!   its cost depends only on the switch count.
//! * Everything else runs the canonical DFS over the hop-adjacency
//!   graph (cycles counted once via their minimum-index vertex):
//!   exhaustive up to [`GRAPH_EXACT_THRESHOLD`] connectable nodes, and
//!   above that a budgeted best-found search
//!   ([`GRAPH_HEURISTIC_BUDGET`] expansions) — a documented heuristic
//!   whose result is always a *valid* ring, just not guaranteed
//!   maximal.
//!
//! Where both apply (single-stage plants of ≤ 12 connectable nodes)
//! the property tests check the two against each other and against
//! brute force.

use std::fmt;

use crate::montecarlo::{Component, FailureDomain};
use crate::pathing::bfs_distances;
use crate::ring_solver::mask_largest_ring;

/// Identifier of a host node (also its MicroPacket address).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u8);

/// Identifier of a switching element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(pub u8);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}

/// Connectable-node count up to which the DFS ring solver is
/// exhaustive (exact). Above this, it runs under
/// [`GRAPH_HEURISTIC_BUDGET`] and returns the best cycle found.
pub const GRAPH_EXACT_THRESHOLD: usize = 12;

/// Node-expansion budget for the heuristic (above-threshold) regime of
/// the DFS ring solver.
pub const GRAPH_HEURISTIC_BUDGET: u64 = 200_000;

/// Switching elements a [`SwitchPath`] holds in place. One covers a
/// crossbar hop, none a torus trunk and three an unfaulted folded-Clos
/// hop (leaf, spine, leaf); only a Clos route detouring around cut
/// stage fibers is longer, and is boxed.
const INLINE_SWITCHES: usize = 3;

/// An ordered run of switching elements, read as a `&[SwitchId]`.
///
/// Up to three elements live in the value itself, so
/// cloning a [`PlantRing`] copies its routes' bytes instead of
/// allocating one list per hop. A longer path is boxed behind the same
/// slice view: there is no cap on route length.
#[derive(Clone)]
pub struct SwitchPath(PathRepr);

#[derive(Clone)]
enum PathRepr {
    Inline {
        len: u8,
        ids: [SwitchId; INLINE_SWITCHES],
    },
    Boxed(Box<[SwitchId]>),
}

impl SwitchPath {
    fn from_slice(ids: &[SwitchId]) -> SwitchPath {
        if ids.len() <= INLINE_SWITCHES {
            let mut inline = [SwitchId(0); INLINE_SWITCHES];
            inline[..ids.len()].copy_from_slice(ids);
            SwitchPath(PathRepr::Inline {
                len: ids.len() as u8,
                ids: inline,
            })
        } else {
            SwitchPath(PathRepr::Boxed(ids.into()))
        }
    }

    fn reverse(&mut self) {
        match &mut self.0 {
            PathRepr::Inline { len, ids } => ids[..*len as usize].reverse(),
            PathRepr::Boxed(ids) => ids.reverse(),
        }
    }
}

impl std::ops::Deref for SwitchPath {
    type Target = [SwitchId];

    fn deref(&self) -> &[SwitchId] {
        match &self.0 {
            PathRepr::Inline { len, ids } => &ids[..*len as usize],
            PathRepr::Boxed(ids) => ids,
        }
    }
}

impl PartialEq for SwitchPath {
    fn eq(&self, other: &SwitchPath) -> bool {
        **self == **other
    }
}

impl Eq for SwitchPath {}

impl fmt::Debug for SwitchPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// The switch path carrying one ring hop `u → v`.
///
/// * crossbar hop: `via = [shared switch]`
/// * torus trunk hop: `via = []` (direct node–node fiber)
/// * multistage hop: `via = [leaf_u, spine, leaf_v]` (or `[leaf]` when
///   both nodes share a leaf; longer around cut stage fibers)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopRoute {
    /// Switching elements traversed, in order from `u` to `v`.
    pub via: SwitchPath,
}

impl HopRoute {
    /// Route through a single switch (the crossbar case).
    pub fn through(s: SwitchId) -> HopRoute {
        HopRoute {
            via: SwitchPath::from_slice(&[s]),
        }
    }

    /// Direct node–node trunk route (no switching element).
    pub fn direct() -> HopRoute {
        HopRoute {
            via: SwitchPath::from_slice(&[]),
        }
    }

    /// The same physical path traversed in the opposite direction.
    pub fn reversed(&self) -> HopRoute {
        let mut via = self.via.clone();
        via.reverse();
        HopRoute { via }
    }
}

/// A logical ring over a [`Plant`]: cyclic node order plus the route
/// carrying each hop `order[i] → order[(i+1) % len]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlantRing {
    /// Cyclic node order. Empty when no ring is constructible.
    pub order: Vec<NodeId>,
    /// `hops[i]` carries `order[i] → order[(i+1) % len]`.
    pub hops: Vec<HopRoute>,
}

impl PlantRing {
    /// Empty ring.
    pub fn empty() -> PlantRing {
        PlantRing {
            order: vec![],
            hops: vec![],
        }
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Check this ring is valid in `plant`: distinct alive members and
    /// every hop's route fully usable (all fibers lit, all switching
    /// elements alive).
    pub fn validate(&self, plant: &Plant) -> Result<(), String> {
        if self.order.len() != self.hops.len() {
            return Err(format!(
                "order/hops length mismatch: {} vs {}",
                self.order.len(),
                self.hops.len()
            ));
        }
        for (i, &n) in self.order.iter().enumerate() {
            if self.order[..i].contains(&n) {
                return Err(format!("{n} appears twice"));
            }
            if !plant.node_alive(n) {
                return Err(format!("{n} is dead"));
            }
        }
        for i in 0..self.order.len() {
            let u = self.order[i];
            let v = self.order[(i + 1) % self.order.len()];
            if !plant.hop_usable(u, v, &self.hops[i]) {
                return Err(format!("hop {i}: {u} -> {v} is not usable"));
            }
        }
        Ok(())
    }

    /// Total one-way fiber length around the ring, metres.
    pub fn total_length_m(&self, plant: &Plant) -> f64 {
        let mut total = 0.0;
        for i in 0..self.order.len() {
            let u = self.order[i];
            let v = self.order[(i + 1) % self.order.len()];
            total += plant.hop_fiber_m(u, v, &self.hops[i]);
        }
        total
    }
}

/// Fiber endpoints in normalized (ascending) order.
fn ordered<T: Ord>(a: T, b: T) -> (T, T) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// One fiber's mutable state.
#[derive(Debug, Clone, Copy)]
struct Fiber {
    length_m: f64,
    up: bool,
}

/// A physical plant of any family, plus failure state: nodes,
/// switching elements, and three fiber classes (node–switch ports,
/// node–node trunks, switch–switch stages). All adjacency is stored in
/// construction order, so every query is deterministic without hashed
/// collections.
///
/// ```
/// use ampnet_topo::montecarlo::Component;
/// use ampnet_topo::{NodeId, Plant, SwitchId};
///
/// let mut plant = Plant::crossbar(6, 4, 100.0);
/// assert_eq!(plant.largest_ring().len(), 6);
///
/// plant.apply(Component::Node(NodeId(2)));
/// plant.apply(Component::Switch(SwitchId(0)));
/// let ring = plant.largest_ring();
/// assert_eq!(ring.len(), 5);
/// ring.validate(&plant).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct Plant {
    family: &'static str,
    n_nodes: usize,
    n_switches: usize,
    node_up: Vec<bool>,
    switch_up: Vec<bool>,
    /// ports[node] = (switch, fiber), in cabling order.
    ports: Vec<Vec<(SwitchId, Fiber)>>,
    /// Node–node trunks, endpoints normalized `a < b`.
    trunks: Vec<(NodeId, NodeId, Fiber)>,
    /// Switch–switch stage fibers, endpoints normalized `a < b`.
    stages: Vec<(SwitchId, SwitchId, Fiber)>,
    /// Per-node incident trunk indices, in insertion order.
    node_trunks: Vec<Vec<usize>>,
    /// Per-switch incident stage indices, in insertion order.
    switch_stages: Vec<Vec<usize>>,
    /// Per-switch cabled nodes, in insertion order.
    switch_ports: Vec<Vec<NodeId>>,
}

/// Construction and fiber lookup.
impl Plant {
    fn new(family: &'static str, n_nodes: usize, n_switches: usize) -> Plant {
        assert!((1..=255).contains(&n_nodes), "1..=255 nodes");
        assert!(n_switches <= 255, "<=255 switching elements");
        Plant {
            family,
            n_nodes,
            n_switches,
            node_up: vec![true; n_nodes],
            switch_up: vec![true; n_switches],
            ports: vec![vec![]; n_nodes],
            trunks: vec![],
            stages: vec![],
            node_trunks: vec![vec![]; n_nodes],
            switch_stages: vec![vec![]; n_switches],
            switch_ports: vec![vec![]; n_switches],
        }
    }

    /// Size every port list once, before the builder cables it:
    /// `per_node` ports on each node, `per_switch(s)` on switch `s`.
    fn reserve_ports(&mut self, per_node: usize, per_switch: impl Fn(usize) -> usize) {
        for ports in &mut self.ports {
            ports.reserve_exact(per_node);
        }
        for (s, nodes) in self.switch_ports.iter_mut().enumerate() {
            nodes.reserve_exact(per_switch(s));
        }
    }

    fn add_port(&mut self, n: NodeId, s: SwitchId, length_m: f64) {
        self.ports[n.0 as usize].push((s, Fiber { length_m, up: true }));
        self.switch_ports[s.0 as usize].push(n);
    }

    fn add_trunk(&mut self, u: NodeId, v: NodeId, length_m: f64) {
        let (a, b) = ordered(u, v);
        assert!(a != b, "trunk endpoints must differ");
        let idx = self.trunks.len();
        self.trunks.push((a, b, Fiber { length_m, up: true }));
        self.node_trunks[a.0 as usize].push(idx);
        self.node_trunks[b.0 as usize].push(idx);
    }

    fn add_stage(&mut self, s: SwitchId, t: SwitchId, length_m: f64) {
        let (a, b) = ordered(s, t);
        assert!(a != b, "stage endpoints must differ");
        let idx = self.stages.len();
        self.stages.push((a, b, Fiber { length_m, up: true }));
        self.switch_stages[a.0 as usize].push(idx);
        self.switch_stages[b.0 as usize].push(idx);
    }

    /// Crossbar plant (slides 14–15): every node cabled to every switch
    /// with fibers of `length_m`, in ascending switch order.
    /// `n_switches = 2` gives the dual-redundant segment, `4` the
    /// quad-redundant one. A switch is a non-blocking crossbar, so a
    /// ring hop between two nodes exists whenever some live switch has
    /// lit fibers to both.
    pub fn crossbar(n_nodes: usize, n_switches: usize, length_m: f64) -> Plant {
        assert!((1..=8).contains(&n_switches), "1..=8 switches");
        let mut p = Plant::new("crossbar", n_nodes, n_switches);
        p.reserve_ports(n_switches, |_| n_nodes);
        for n in 0..n_nodes {
            for s in 0..n_switches {
                p.add_port(NodeId(n as u8), SwitchId(s as u8), length_m);
            }
        }
        p
    }

    /// 3D torus direct network: node `(x, y, z)` has trunks to its
    /// ±1 neighbours in each dimension (wrapping). Dimensions of size
    /// 2 get a single trunk per pair; size-1 dimensions contribute no
    /// trunks. Node id = `x + dims[0]*(y + dims[1]*z)`.
    pub fn torus3d(dims: [usize; 3], length_m: f64) -> Plant {
        let n = dims[0] * dims[1] * dims[2];
        assert!((1..=255).contains(&n), "1..=255 torus nodes");
        let id = |x: usize, y: usize, z: usize| -> NodeId {
            NodeId((x + dims[0] * (y + dims[1] * z)) as u8)
        };
        let mut p = Plant::new("torus3d", n, 0);
        for z in 0..dims[2] {
            for y in 0..dims[1] {
                for x in 0..dims[0] {
                    let coords = [x, y, z];
                    for dim in 0..3 {
                        let size = dims[dim];
                        if size == 1 {
                            continue;
                        }
                        // Size-2 dimensions: one trunk per pair, added
                        // from coordinate 0 only.
                        if size == 2 && coords[dim] != 0 {
                            continue;
                        }
                        let mut nb = coords;
                        nb[dim] = (coords[dim] + 1) % size;
                        p.add_trunk(id(x, y, z), id(nb[0], nb[1], nb[2]), length_m);
                    }
                }
            }
        }
        p
    }

    /// Folded-Clos / multistage plant: node `i` cabled to leaf
    /// `i % leaves`; every leaf cabled to every spine. Switch ids:
    /// leaves `0..leaves`, spines `leaves..leaves+spines`.
    pub fn folded_clos(n_nodes: usize, leaves: usize, spines: usize, length_m: f64) -> Plant {
        assert!(leaves >= 1 && spines >= 1, "need >=1 leaf and >=1 spine");
        assert!(leaves + spines <= 255, "<=255 switching elements");
        let mut p = Plant::new("folded-clos", n_nodes, leaves + spines);
        // Leaf `l` cables nodes `l, l + leaves, …`; spines cable none.
        let per_leaf = |l: usize| n_nodes.saturating_sub(l).div_ceil(leaves);
        p.reserve_ports(1, |s| if s < leaves { per_leaf(s) } else { 0 });
        for i in 0..n_nodes {
            p.add_port(NodeId(i as u8), SwitchId((i % leaves) as u8), length_m);
        }
        for l in 0..leaves {
            for sp in 0..spines {
                p.add_stage(
                    SwitchId(l as u8),
                    SwitchId((leaves + sp) as u8),
                    length_m,
                );
            }
        }
        p
    }

    fn port_at(&self, n: NodeId, s: SwitchId) -> Option<usize> {
        self.ports
            .get(n.0 as usize)?
            .iter()
            .position(|&(ps, _)| ps == s)
    }

    fn trunk_at(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let ends = ordered(u, v);
        self.trunks.iter().position(|&(a, b, _)| (a, b) == ends)
    }

    fn stage_at(&self, s: SwitchId, t: SwitchId) -> Option<usize> {
        let ends = ordered(s, t);
        self.stages.iter().position(|&(a, b, _)| (a, b) == ends)
    }

    fn port(&self, n: NodeId, s: SwitchId) -> Option<&Fiber> {
        self.port_at(n, s).map(|i| &self.ports[n.0 as usize][i].1)
    }

    fn trunk(&self, u: NodeId, v: NodeId) -> Option<&Fiber> {
        self.trunk_at(u, v).map(|i| &self.trunks[i].2)
    }

    fn stage(&self, s: SwitchId, t: SwitchId) -> Option<&Fiber> {
        self.stage_at(s, t).map(|i| &self.stages[i].2)
    }

    /// The up/down flag of component `c`, or `None` when this plant
    /// has no such component (an id out of range, an uncabled port, a
    /// trunk on a crossbar, ...).
    fn state_mut(&mut self, c: Component) -> Option<&mut bool> {
        match c {
            Component::Link(n, s) => self
                .port_at(n, s)
                .map(|i| &mut self.ports[n.0 as usize][i].1.up),
            Component::Trunk(u, v) => self.trunk_at(u, v).map(|i| &mut self.trunks[i].2.up),
            Component::Stage(s, t) => self.stage_at(s, t).map(|i| &mut self.stages[i].2.up),
            Component::Switch(s) => self.switch_up.get_mut(s.0 as usize),
            Component::Node(n) => self.node_up.get_mut(n.0 as usize),
        }
    }
}

/// Queries, failure injection and the ring solvers' entry point.
impl Plant {
    /// Family label for reports: "crossbar", "torus3d", "folded-clos".
    /// A label only — no query or solver branches on it.
    pub fn family(&self) -> &'static str {
        self.family
    }

    /// Number of nodes (alive or not).
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of switching elements (alive or not).
    pub fn n_switches(&self) -> usize {
        self.n_switches
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n_nodes as u8).map(NodeId)
    }

    /// All switching-element ids.
    pub fn switch_ids(&self) -> impl Iterator<Item = SwitchId> + '_ {
        (0..self.n_switches as u8).map(SwitchId)
    }

    /// Is the node powered? (`false` for an id the plant does not have.)
    pub fn node_alive(&self, n: NodeId) -> bool {
        self.node_up.get(n.0 as usize).copied().unwrap_or(false)
    }

    /// Is the switching element powered? (`false` for an id the plant
    /// does not have.)
    pub fn switch_alive(&self, s: SwitchId) -> bool {
        self.switch_up.get(s.0 as usize).copied().unwrap_or(false)
    }

    /// Alive nodes, ascending.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.node_ids().filter(|&n| self.node_alive(n)).collect()
    }

    /// The live switches `n` can reach over lit port fibers, in cabling
    /// order. Empty for a dead node.
    fn usable_ports(&self, n: NodeId) -> impl Iterator<Item = SwitchId> + '_ {
        let ports: &[(SwitchId, Fiber)] = if self.node_alive(n) {
            &self.ports[n.0 as usize]
        } else {
            &[]
        };
        ports
            .iter()
            .filter(|&&(s, f)| f.up && self.switch_alive(s))
            .map(|&(s, _)| s)
    }

    /// Bitmask (bit `s` set ⇔ port to switch `s` usable: node, fiber
    /// and switch all alive) — the mask solver's view of a node. Only
    /// meaningful on plants with ≤ 8 switches.
    pub(crate) fn switch_mask(&self, n: NodeId) -> u8 {
        self.usable_ports(n).fold(0, |mask, s| mask | 1 << s.0)
    }

    /// Alive with at least one lit attachment — a port to a live
    /// switch or a lit trunk: such a node can at least be probed.
    pub fn connectable(&self, n: NodeId) -> bool {
        self.node_alive(n)
            && (self.usable_ports(n).next().is_some()
                || self.node_trunks[n.0 as usize]
                    .iter()
                    .any(|&ti| self.trunks[ti].2.up))
    }

    /// Fail a component. A component this plant does not have — an id
    /// out of range, an uncabled port, a trunk on a crossbar — is
    /// ignored.
    pub fn apply(&mut self, c: Component) {
        if let Some(up) = self.state_mut(c) {
            *up = false;
        }
    }

    /// Repair a component (unknown components are ignored, as in
    /// [`Plant::apply`]).
    pub fn restore(&mut self, c: Component) {
        if let Some(up) = self.state_mut(c) {
            *up = true;
        }
    }

    /// Enumerate failable components under `domain`, in a fixed order:
    /// fibers (ports node-major in cabling order, then trunks, then
    /// stages), then switching elements, then nodes.
    pub fn components(&self, domain: FailureDomain) -> Vec<Component> {
        let mut out = vec![];
        for (n, ports) in self.ports.iter().enumerate() {
            for &(s, _) in ports {
                out.push(Component::Link(NodeId(n as u8), s));
            }
        }
        for &(a, b, _) in &self.trunks {
            out.push(Component::Trunk(a, b));
        }
        for &(a, b, _) in &self.stages {
            out.push(Component::Stage(a, b));
        }
        if matches!(
            domain,
            FailureDomain::LinksAndSwitches | FailureDomain::Everything
        ) {
            out.extend(self.switch_ids().map(Component::Switch));
        }
        if matches!(domain, FailureDomain::Everything) {
            out.extend(self.node_ids().map(Component::Node));
        }
        out
    }

    /// All fiber components (ports, trunks, stages) in enumeration
    /// order — the address space for topology-generic fault scripts.
    pub fn link_components(&self) -> Vec<Component> {
        self.components(FailureDomain::LinksOnly)
    }

    /// Currently-failed components in diagnostic-sweep order: dead
    /// switching elements ascending, then dark fibers in enumeration
    /// order. (Dead nodes are reported by rostering, not the sweep.)
    pub fn failed_components(&self) -> Vec<Component> {
        let mut out = vec![];
        for s in self.switch_ids() {
            if !self.switch_alive(s) {
                out.push(Component::Switch(s));
            }
        }
        for (n, ports) in self.ports.iter().enumerate() {
            for &(s, f) in ports {
                if !f.up {
                    out.push(Component::Link(NodeId(n as u8), s));
                }
            }
        }
        for &(a, b, f) in &self.trunks {
            if !f.up {
                out.push(Component::Trunk(a, b));
            }
        }
        for &(a, b, f) in &self.stages {
            if !f.up {
                out.push(Component::Stage(a, b));
            }
        }
        out
    }

    /// Shortest usable route for a ring hop `u → v`, BFS over switching
    /// elements (nodes are endpoints, never carriers). `None` when
    /// either node is dead or no lit path exists. Ties break towards
    /// the first element in `v`'s cabling order, so on a crossbar this
    /// is the lowest-numbered shared live switch.
    pub fn hop_route(&self, u: NodeId, v: NodeId) -> Option<HopRoute> {
        if u == v || !self.node_alive(u) || !self.node_alive(v) {
            return None;
        }
        let nn = self.n_nodes;
        let dist = bfs_distances(nn + self.n_switches, u.0 as usize, |x, visit| {
            if x < nn {
                // Only the start node is expanded; other node vertices
                // (just `v`) are endpoints.
                let nid = NodeId(x as u8);
                if nid != u {
                    return;
                }
                for &(s, f) in &self.ports[x] {
                    if f.up && self.switch_alive(s) {
                        visit(nn + s.0 as usize);
                    }
                }
                for &ti in &self.node_trunks[x] {
                    let (a, b, f) = self.trunks[ti];
                    let other = if a == nid { b } else { a };
                    if f.up && other == v {
                        visit(other.0 as usize);
                    }
                }
            } else {
                let s = SwitchId((x - nn) as u8);
                for &si in &self.switch_stages[x - nn] {
                    let (a, b, f) = self.stages[si];
                    let other = if a == s { b } else { a };
                    if f.up && self.switch_alive(other) {
                        visit(nn + other.0 as usize);
                    }
                }
                for &w in &self.switch_ports[x - nn] {
                    if w == v && self.port(w, s).is_some_and(|f| f.up) {
                        visit(w.0 as usize);
                    }
                }
            }
        });
        let dv = dist[v.0 as usize];
        if dv == usize::MAX {
            return None;
        }
        if dv == 1 {
            return Some(HopRoute::direct());
        }
        // Walk back from v picking the first adjacency-order element at
        // each decreasing distance level — deterministic because all
        // adjacency lists are in construction order.
        let mut via_rev: Vec<SwitchId> = vec![];
        let mut cur = self.ports[v.0 as usize]
            .iter()
            .find(|&&(s, f)| {
                f.up && self.switch_alive(s) && dist[nn + s.0 as usize] == dv - 1
            })
            .map(|&(s, _)| s)
            .expect("BFS reached v through some lit port");
        via_rev.push(cur);
        let mut d = dv - 1;
        while d > 1 {
            let next = self.switch_stages[cur.0 as usize]
                .iter()
                .map(|&si| {
                    let (a, b, f) = self.stages[si];
                    (if a == cur { b } else { a }, f)
                })
                .find(|&(t, f)| {
                    f.up && self.switch_alive(t) && dist[nn + t.0 as usize] == d - 1
                })
                .map(|(t, _)| t)
                .expect("BFS distance chain must be contiguous");
            via_rev.push(next);
            cur = next;
            d -= 1;
        }
        via_rev.reverse();
        Some(HopRoute {
            via: SwitchPath::from_slice(&via_rev),
        })
    }

    /// Transmitter-side usability of a committed route: `u` alive and
    /// every fiber and switching element along it lit. Deliberately
    /// does not check `v`'s liveness — the downstream node detects
    /// loss of light itself.
    pub fn hop_usable(&self, u: NodeId, v: NodeId, route: &HopRoute) -> bool {
        if !self.node_alive(u) {
            return false;
        }
        let (Some(&first), Some(&last)) = (route.via.first(), route.via.last()) else {
            return self.trunk(u, v).is_some_and(|f| f.up);
        };
        self.port(u, first).is_some_and(|f| f.up)
            && self.port(v, last).is_some_and(|f| f.up)
            && route.via.iter().all(|&s| self.switch_alive(s))
            && route
                .via
                .windows(2)
                .all(|w| self.stage(w[0], w[1]).is_some_and(|f| f.up))
    }

    /// Fiber metres along a committed route, regardless of up/down
    /// state (tour timing needs lengths even over broken hops; missing
    /// segments count 0). Crossbar: `len(u→s) + len(s→v)` in that
    /// order.
    pub fn hop_fiber_m(&self, u: NodeId, v: NodeId, route: &HopRoute) -> f64 {
        let len = |f: Option<&Fiber>| f.map_or(0.0, |f| f.length_m);
        let (Some(&first), Some(&last)) = (route.via.first(), route.via.last()) else {
            return len(self.trunk(u, v));
        };
        let mut total = len(self.port(u, first));
        for w in route.via.windows(2) {
            total += len(self.stage(w[0], w[1]));
        }
        total + len(self.port(v, last))
    }

    /// The final fiber segment of the route, arriving at `v` — the
    /// component an error burst at `v` damages.
    pub fn hop_last_link(&self, u: NodeId, v: NodeId, route: &HopRoute) -> Component {
        match route.via.last() {
            Some(&s) => Component::Link(v, s),
            None => {
                let (a, b) = ordered(u, v);
                Component::Trunk(a, b)
            }
        }
    }

    /// Minimum attachment count over all nodes — the redundancy degree
    /// reported by topology benchmarks. Crossbar: `n_switches`.
    pub fn redundancy_degree(&self) -> usize {
        (0..self.n_nodes)
            .map(|n| self.ports[n].len() + self.node_trunks[n].len())
            .min()
            .unwrap_or(0)
    }

    /// The shape the mask solver is exact on: every fiber is a
    /// node–switch port and the switches fit an 8-bit mask.
    pub(crate) fn is_single_stage(&self) -> bool {
        self.trunks.is_empty() && self.stages.is_empty() && self.n_switches <= 8
    }

    /// Largest logical ring currently constructible (slide 16).
    /// Deterministic: identical plants produce identical rings.
    ///
    /// The solver is chosen by the plant's shape, see the module docs:
    /// single-stage plants of ≤ 8 switches are solved exactly at any
    /// node count by the Eulerian mask search; everything else by the
    /// canonical DFS, exact up to [`GRAPH_EXACT_THRESHOLD`] connectable
    /// nodes and best-found under [`GRAPH_HEURISTIC_BUDGET`] above.
    pub fn largest_ring(&self) -> PlantRing {
        if self.is_single_stage() {
            mask_largest_ring(self)
        } else {
            dfs_largest_ring(self)
        }
    }
}

/// Longest-simple-cycle search over the hop-adjacency graph of the
/// connectable nodes. Cycles are enumerated canonically (start =
/// minimum-index vertex, neighbours ascending), so the result is
/// deterministic; `budget` caps DFS node expansions in the heuristic
/// regime.
pub fn dfs_largest_ring(plant: &Plant) -> PlantRing {
    let cand: Vec<NodeId> = plant
        .node_ids()
        .filter(|&n| plant.connectable(n))
        .collect();
    let k = cand.len();
    if k == 0 {
        return PlantRing::empty();
    }

    // Hop routes per unordered candidate pair (i < j); the reverse hop
    // traverses the same fibers backwards.
    let mut routes: Vec<Vec<Option<HopRoute>>> = vec![vec![None; k]; k];
    let mut adj: Vec<Vec<usize>> = vec![vec![]; k];
    for i in 0..k {
        for j in i + 1..k {
            if let Some(r) = plant.hop_route(cand[i], cand[j]) {
                routes[i][j] = Some(r);
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    for a in adj.iter_mut() {
        a.sort_unstable();
    }

    let mut budget = if k <= GRAPH_EXACT_THRESHOLD {
        u64::MAX
    } else {
        GRAPH_HEURISTIC_BUDGET
    };
    let mut best: Vec<usize> = vec![];
    let mut path: Vec<usize> = Vec::with_capacity(k);
    let mut visited = vec![false; k];
    for start in 0..k {
        // Using only vertices >= start, a cycle can have at most
        // k - start members.
        if k - start <= best.len() || budget == 0 {
            break;
        }
        visited.iter_mut().for_each(|v| *v = false);
        visited[start] = true;
        path.clear();
        path.push(start);
        dfs_cycles(&adj, start, start, k - start, &mut visited, &mut path, &mut best, &mut budget);
        if best.len() == k {
            break;
        }
    }

    if best.len() < 2 {
        // No cycle: degenerate single-node ring through a live switch
        // (a node cannot loop to itself over a trunk).
        return cand
            .iter()
            .find_map(|&n| {
                let s = plant.usable_ports(n).next()?;
                Some(PlantRing {
                    order: vec![n],
                    hops: vec![HopRoute::through(s)],
                })
            })
            .unwrap_or_else(PlantRing::empty);
    }

    let order: Vec<NodeId> = best.iter().map(|&i| cand[i]).collect();
    let mut hops = Vec::with_capacity(best.len());
    for w in 0..best.len() {
        let a = best[w];
        let b = best[(w + 1) % best.len()];
        let route = if a < b {
            routes[a][b].clone().expect("cycle edge must have a route")
        } else {
            routes[b][a]
                .as_ref()
                .expect("cycle edge must have a route")
                .reversed()
        };
        hops.push(route);
    }
    let ring = PlantRing { order, hops };
    debug_assert!(ring.validate(plant).is_ok());
    ring
}

#[expect(
    clippy::too_many_arguments,
    reason = "the recursive search threads its whole state through each call"
)]
fn dfs_cycles(
    adj: &[Vec<usize>],
    start: usize,
    cur: usize,
    max_len: usize,
    visited: &mut Vec<bool>,
    path: &mut Vec<usize>,
    best: &mut Vec<usize>,
    budget: &mut u64,
) {
    if *budget == 0 {
        return;
    }
    *budget -= 1;
    for wi in 0..adj[cur].len() {
        let w = adj[cur][wi];
        if w == start && path.len() >= 2 && path.len() > best.len() {
            *best = path.clone();
            if best.len() == max_len {
                return;
            }
        }
        if w > start && !visited[w] && best.len() < max_len {
            visited[w] = true;
            path.push(w);
            dfs_cycles(adj, start, w, max_len, visited, path, best, budget);
            path.pop();
            visited[w] = false;
            if *budget == 0 || best.len() == max_len {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(p: &Plant) -> PlantRing {
        let r = p.largest_ring();
        r.validate(p).expect("solver produced an invalid ring");
        r
    }

    #[test]
    fn quad_builder_shape() {
        let p = Plant::crossbar(6, 4, 100.0);
        assert_eq!(p.family(), "crossbar");
        assert_eq!(p.n_nodes(), 6);
        assert_eq!(p.n_switches(), 4);
        assert_eq!(p.redundancy_degree(), 4);
        for n in p.node_ids() {
            assert_eq!(p.switch_mask(n), 0b1111);
        }
    }

    #[test]
    fn dual_builder_shape() {
        let p = Plant::crossbar(4, 2, 50.0);
        assert_eq!(p.n_switches(), 2);
        assert_eq!(p.switch_mask(NodeId(0)), 0b11);
    }

    #[test]
    fn failures_update_masks() {
        let mut p = Plant::crossbar(4, 4, 100.0);
        p.apply(Component::Switch(SwitchId(0)));
        assert_eq!(p.switch_mask(NodeId(1)), 0b1110);
        p.apply(Component::Link(NodeId(1), SwitchId(2)));
        assert_eq!(p.switch_mask(NodeId(1)), 0b1010);
        p.apply(Component::Node(NodeId(1)));
        assert_eq!(p.switch_mask(NodeId(1)), 0);
        assert!(!p.connectable(NodeId(1)));
        p.restore(Component::Node(NodeId(1)));
        p.restore(Component::Link(NodeId(1), SwitchId(2)));
        p.restore(Component::Switch(SwitchId(0)));
        assert_eq!(p.switch_mask(NodeId(1)), 0b1111);
    }

    #[test]
    fn hop_length_sums_both_fibers() {
        let p = Plant::crossbar(2, 4, 250.0);
        let r = p.hop_route(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(p.hop_fiber_m(NodeId(0), NodeId(1), &r), 500.0);
    }

    #[test]
    fn dead_switch_breaks_hops_through_it_only() {
        let mut p = Plant::crossbar(2, 2, 10.0);
        let via0 = p.hop_route(NodeId(0), NodeId(1)).unwrap();
        p.apply(Component::Switch(SwitchId(0)));
        assert!(!p.hop_usable(NodeId(0), NodeId(1), &via0));
        let via1 = HopRoute::through(SwitchId(1));
        assert_eq!(p.hop_route(NodeId(0), NodeId(1)), Some(via1.clone()));
        assert!(p.hop_usable(NodeId(0), NodeId(1), &via1));
    }

    #[test]
    fn alive_nodes_list() {
        let mut p = Plant::crossbar(5, 4, 10.0);
        p.apply(Component::Node(NodeId(2)));
        let alive = p.alive_nodes();
        assert_eq!(alive.len(), 4);
        assert!(!alive.contains(&NodeId(2)));
    }

    #[test]
    fn solver_is_selected_by_shape_not_family() {
        // Single-stage, ≤ 8 switches: the mask solver, whatever the
        // node count. Trunks or stages: the DFS.
        assert!(Plant::crossbar(64, 4, 100.0).is_single_stage());
        assert!(!Plant::torus3d([2, 2, 2], 100.0).is_single_stage());
        assert!(!Plant::folded_clos(6, 2, 2, 100.0).is_single_stage());
        let mut p = Plant::crossbar(6, 4, 100.0);
        p.apply(Component::Switch(SwitchId(0)));
        p.apply(Component::Node(NodeId(2)));
        assert_eq!(ring_of(&p), mask_largest_ring(&p));
        assert_eq!(ring_of(&p).len(), dfs_largest_ring(&p).len());
    }

    /// Hostile input: components the plant does not have — ids out of
    /// range, an uncabled port, trunks and stages on a plant without
    /// them — are ignored by `apply` and `restore` on every family.
    #[test]
    fn unknown_components_are_ignored_on_every_family() {
        let probes = [
            Component::Switch(SwitchId(99)),
            Component::Link(NodeId(200), SwitchId(0)),
            Component::Link(NodeId(2), SwitchId(7)),
            Component::Node(NodeId(77)),
            Component::Trunk(NodeId(0), NodeId(200)),
            Component::Stage(SwitchId(0), SwitchId(99)),
        ];
        for mut p in [
            Plant::crossbar(6, 4, 100.0),
            Plant::torus3d([3, 2, 1], 100.0),
            Plant::folded_clos(6, 2, 2, 100.0),
        ] {
            let ring = ring_of(&p);
            for c in probes {
                p.apply(c);
                assert!(p.failed_components().is_empty(), "{}: apply {c:?}", p.family());
                assert_eq!(p.alive_nodes().len(), 6);
                assert_eq!(ring_of(&p), ring, "{}: apply {c:?}", p.family());
                p.restore(c);
                assert!(p.failed_components().is_empty(), "{}: restore {c:?}", p.family());
                assert_eq!(ring_of(&p), ring, "{}: restore {c:?}", p.family());
            }
            assert!(!p.node_alive(NodeId(77)));
            assert!(!p.switch_alive(SwitchId(99)));
            assert!(!p.connectable(NodeId(77)));
        }
    }

    #[test]
    fn crossbar_hop_route_prefers_lowest_switch() {
        let mut p = Plant::crossbar(3, 4, 100.0);
        assert_eq!(
            p.hop_route(NodeId(0), NodeId(1)),
            Some(HopRoute::through(SwitchId(0)))
        );
        p.apply(Component::Link(NodeId(0), SwitchId(0)));
        assert_eq!(
            p.hop_route(NodeId(0), NodeId(1)),
            Some(HopRoute::through(SwitchId(1)))
        );
        for s in 1..4 {
            p.apply(Component::Switch(SwitchId(s)));
        }
        assert_eq!(p.hop_route(NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn torus_shape_and_redundancy() {
        let p = Plant::torus3d([2, 2, 2], 50.0);
        assert_eq!(p.n_nodes(), 8);
        assert_eq!(p.n_switches(), 0);
        assert_eq!(p.redundancy_degree(), 3);
        // 8 nodes x 3 dims of size 2, one trunk per pair: 12 trunks.
        assert_eq!(p.link_components().len(), 12);
    }

    #[test]
    fn torus_large_dim_wraps() {
        let p = Plant::torus3d([4, 1, 1], 10.0);
        // A 4-cycle: every node has exactly 2 trunks.
        assert_eq!(p.redundancy_degree(), 2);
        assert_eq!(p.link_components().len(), 4);
        assert_eq!(ring_of(&p).len(), 4);
    }

    #[test]
    fn torus_2x2x2_is_hamiltonian() {
        let p = Plant::torus3d([2, 2, 2], 50.0);
        assert_eq!(ring_of(&p).len(), 8);
    }

    #[test]
    fn torus_trunk_hop_is_direct() {
        let p = Plant::torus3d([2, 2, 1], 50.0);
        let r = p.hop_route(NodeId(0), NodeId(1)).unwrap();
        assert!(r.via.is_empty());
        assert_eq!(p.hop_fiber_m(NodeId(0), NodeId(1), &r), 50.0);
        assert_eq!(
            p.hop_last_link(NodeId(1), NodeId(0), &r),
            Component::Trunk(NodeId(0), NodeId(1))
        );
    }

    #[test]
    fn torus_cut_trunk_shrinks_ring() {
        let mut p = Plant::torus3d([3, 1, 1], 10.0);
        assert_eq!(ring_of(&p).len(), 3);
        p.apply(Component::Trunk(NodeId(0), NodeId(1)));
        // Triangle minus an edge: best is a 2-ring over one duplex
        // trunk (both directions of the same fiber pair, like a
        // crossbar 2-ring reusing its two fibers).
        let r = ring_of(&p);
        assert_eq!(r.len(), 2);
        assert_eq!(r.order, vec![NodeId(0), NodeId(2)]);
        p.restore(Component::Trunk(NodeId(0), NodeId(1)));
        assert_eq!(ring_of(&p).len(), 3);
    }

    #[test]
    fn torus_node_death_reroutes() {
        let mut p = Plant::torus3d([2, 2, 2], 50.0);
        p.apply(Component::Node(NodeId(3)));
        let r = ring_of(&p);
        assert!(!r.order.contains(&NodeId(3)));
        assert!(r.len() >= 6, "7 survivors in Q3 minus a vertex: ring >= 6");
    }

    #[test]
    fn clos_multihop_route() {
        let p = Plant::folded_clos(4, 2, 2, 100.0);
        // Same leaf: one switch. Different leaves: leaf-spine-leaf.
        let same = p.hop_route(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(*same.via, [SwitchId(0)]);
        let cross = p.hop_route(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(*cross.via, [SwitchId(0), SwitchId(2), SwitchId(1)]);
        assert_eq!(p.hop_fiber_m(NodeId(0), NodeId(1), &cross), 400.0);
    }

    #[test]
    fn clos_rings_everyone_and_survives_spine_loss() {
        let mut p = Plant::folded_clos(6, 2, 2, 100.0);
        assert_eq!(ring_of(&p).len(), 6);
        p.apply(Component::Switch(SwitchId(2)));
        assert_eq!(ring_of(&p).len(), 6, "second spine still connects the leaves");
        p.apply(Component::Switch(SwitchId(3)));
        // Leaves now isolated: biggest cycle lives inside one leaf.
        assert_eq!(ring_of(&p).len(), 3);
    }

    #[test]
    fn clos_stage_cut_reroutes_via_other_spine() {
        let mut p = Plant::folded_clos(4, 2, 2, 100.0);
        p.apply(Component::Stage(SwitchId(0), SwitchId(2)));
        let cross = p.hop_route(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(*cross.via, [SwitchId(0), SwitchId(3), SwitchId(1)]);
    }

    /// Three leaves, two spines; leaf 0 keeps only spine 3, leaf 2 only
    /// spine 4, so node 0 (leaf 0) reaches node 2 (leaf 2) through leaf
    /// 1: five switching elements, more than a route holds in place.
    #[test]
    fn clos_stage_cuts_detour_through_a_third_leaf() {
        let mut p = Plant::folded_clos(6, 3, 2, 50.0);
        p.apply(Component::Stage(SwitchId(0), SwitchId(4)));
        p.apply(Component::Stage(SwitchId(2), SwitchId(3)));
        let (u, v) = (NodeId(0), NodeId(2));
        let route = p.hop_route(u, v).expect("a detour through leaf 1");
        let path = [0, 3, 1, 4, 2].map(SwitchId);
        assert!(path.len() > INLINE_SWITCHES);
        assert_eq!(*route.via, path);

        let back = route.reversed();
        assert_eq!(*back.via, [2, 4, 1, 3, 0].map(SwitchId));
        assert_eq!(back.reversed(), route);
        assert_ne!(back, route);
        assert_eq!(format!("{route:?}"), format!("HopRoute {{ via: {path:?} }}"));

        // Two ports and four stage fibers of 50 m.
        assert_eq!(p.hop_fiber_m(u, v, &route), 300.0);
        assert_eq!(p.hop_fiber_m(v, u, &back), 300.0);
        assert_eq!(p.hop_last_link(u, v, &route), Component::Link(v, SwitchId(2)));
        assert_eq!(p.hop_last_link(v, u, &back), Component::Link(u, SwitchId(0)));
        assert!(p.hop_usable(u, v, &route));
        assert!(p.hop_usable(v, u, &back));
        // Cutting the detour's leaf 1 – spine 4 stage breaks it both ways.
        p.apply(Component::Stage(SwitchId(1), SwitchId(4)));
        assert!(!p.hop_usable(u, v, &route));
        assert!(!p.hop_usable(v, u, &back));
        assert_eq!(p.hop_fiber_m(u, v, &route), 300.0, "lengths outlive the cut");
        assert_eq!(p.hop_route(u, v), None);
    }

    #[test]
    fn degenerate_single_node_ring_needs_a_switch() {
        let mut clos = Plant::folded_clos(2, 2, 1, 100.0);
        clos.apply(Component::Node(NodeId(1)));
        let r = ring_of(&clos);
        assert_eq!(r.len(), 1);
        assert_eq!(*r.hops[0].via, [SwitchId(0)]);

        let mut torus = Plant::torus3d([2, 1, 1], 100.0);
        torus.apply(Component::Node(NodeId(1)));
        assert!(ring_of(&torus).is_empty(), "no switch to loop through");
    }

    #[test]
    fn hop_usable_is_transmitter_side() {
        let mut p = Plant::torus3d([2, 1, 1], 10.0);
        let r = p.hop_route(NodeId(0), NodeId(1)).unwrap();
        // Receiver death does not mark the hop unusable (downstream
        // detection handles it), matching the crossbar predicate.
        p.apply(Component::Node(NodeId(1)));
        assert!(p.hop_usable(NodeId(0), NodeId(1), &r));
        assert!(!p.hop_usable(NodeId(1), NodeId(0), &r));
        p.apply(Component::Trunk(NodeId(0), NodeId(1)));
        assert!(!p.hop_usable(NodeId(0), NodeId(1), &r));
    }

    #[test]
    fn failed_components_order_is_switches_then_fibers() {
        let mut p = Plant::folded_clos(4, 2, 2, 100.0);
        p.apply(Component::Link(NodeId(3), SwitchId(1)));
        p.apply(Component::Switch(SwitchId(3)));
        p.apply(Component::Stage(SwitchId(0), SwitchId(2)));
        assert_eq!(
            p.failed_components(),
            vec![
                Component::Switch(SwitchId(3)),
                Component::Link(NodeId(3), SwitchId(1)),
                Component::Stage(SwitchId(0), SwitchId(2)),
            ]
        );
    }

    #[test]
    fn heuristic_regime_is_valid_and_deterministic() {
        let p = Plant::torus3d([4, 4, 2], 25.0);
        assert!(p.n_nodes() > GRAPH_EXACT_THRESHOLD);
        let a = ring_of(&p);
        let b = ring_of(&p);
        assert_eq!(a, b);
        assert!(a.len() >= 8, "budgeted search still finds a real ring");
    }

    #[test]
    fn plant_ring_validate_catches_stale_routes() {
        let mut p = Plant::folded_clos(4, 2, 2, 100.0);
        let r = ring_of(&p);
        p.apply(Component::Switch(SwitchId(0)));
        assert!(r.validate(&p).is_err());
    }

    #[test]
    fn total_length_sums_hops() {
        let p = Plant::crossbar(4, 2, 100.0);
        let r = ring_of(&p);
        assert!((r.total_length_m(&p) - 800.0).abs() < 1e-9);
    }

    #[test]
    fn components_domains_nest() {
        let p = Plant::folded_clos(4, 2, 2, 100.0);
        let links = p.components(FailureDomain::LinksOnly).len();
        let plus_sw = p.components(FailureDomain::LinksAndSwitches).len();
        let all = p.components(FailureDomain::Everything).len();
        assert_eq!(links, 4 + 4); // 4 ports + 4 stages
        assert_eq!(plus_sw, links + 4);
        assert_eq!(all, plus_sw + 4);
    }
}
