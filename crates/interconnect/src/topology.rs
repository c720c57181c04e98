//! Tree topologies of PCIe nodes and their instantiation as simulation
//! resources.

use crate::pcie::LinkSpec;
use hilos_sim::{FlowEngine, ResourceId, ResourceKind, ResourceSpec};
use std::error::Error;
use std::fmt;

/// Identifier of a node in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Index of the node inside its topology.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Errors from topology operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// A node id did not belong to this topology.
    UnknownNode(usize),
    /// A route between identical endpoints was requested.
    SameEndpoint(usize),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(i) => write!(f, "unknown topology node index {i}"),
            TopologyError::SameEndpoint(i) => {
                write!(f, "route endpoints are the same node (index {i})")
            }
        }
    }
}

impl Error for TopologyError {}

#[derive(Debug, Clone)]
struct Node {
    /// Parent node and the link connecting to it (None for the root).
    parent: Option<(NodeId, LinkSpec)>,
    depth: u32,
}

/// A tree of PCIe nodes.
///
/// Construction is purely structural; call [`Topology::instantiate`] to
/// materialize each link direction as a bandwidth resource inside a
/// [`FlowEngine`]. A node is its [`NodeId`] and its link to its parent:
/// routing reads nothing else, so switches and endpoints are added alike.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<Node>,
}

impl Default for Topology {
    /// [`Topology::new`]: the host root complex alone. (A derived default
    /// would hold no root, and [`Topology::root`] would name no node.)
    fn default() -> Self {
        Topology::new()
    }
}

impl Topology {
    /// Creates a topology containing only the host root complex.
    pub fn new() -> Self {
        Topology { nodes: vec![Node { parent: None, depth: 0 }] }
    }

    /// The root (host) node.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes, including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the topology has only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Adds a node (a PCIe switch or an endpoint device) under `parent`,
    /// connected with `link`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` does not belong to this topology.
    pub fn add_node(&mut self, parent: NodeId, link: LinkSpec) -> NodeId {
        assert!(parent.index() < self.nodes.len(), "unknown parent {parent}");
        let depth = self.nodes[parent.index()].depth + 1;
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { parent: Some((parent, link)), depth });
        id
    }

    /// Registers every link direction as a resource in `engine` (named
    /// `"pcie:up"` towards the root and `"pcie:down"` away from it) and
    /// returns the instance used to compute routes.
    pub fn instantiate(&self, engine: &mut FlowEngine) -> TopologyInstance {
        let nodes = self
            .nodes
            .iter()
            .map(|node| RoutedNode {
                depth: node.depth,
                uplink: node.parent.map(|(parent, link)| {
                    let bw = link.bandwidth();
                    let up =
                        engine.add_resource(ResourceSpec::new("pcie:up", ResourceKind::Link, bw));
                    let down =
                        engine.add_resource(ResourceSpec::new("pcie:down", ResourceKind::Link, bw));
                    DirectedLinks { parent, up, down }
                }),
            })
            .collect();
        TopologyInstance { nodes }
    }
}

/// A non-root node's link to its parent, one resource per direction.
#[derive(Debug, Clone, Copy)]
struct DirectedLinks {
    parent: NodeId,
    /// Towards the root.
    up: ResourceId,
    /// Away from the root.
    down: ResourceId,
}

/// What routing needs of one node: its depth and its link to its parent
/// (`None` for the root).
#[derive(Debug, Clone, Copy)]
struct RoutedNode {
    depth: u32,
    uplink: Option<DirectedLinks>,
}

/// A [`Topology`]'s tree, with its links materialized as engine resources:
/// all that routing reads.
#[derive(Debug, Clone)]
pub struct TopologyInstance {
    nodes: Vec<RoutedNode>,
}

impl TopologyInstance {
    /// Resource carrying traffic from `id` towards its parent, or `None`
    /// for the root.
    pub fn uplink_resource(&self, id: NodeId) -> Option<ResourceId> {
        self.nodes.get(id.index())?.uplink.map(|l| l.up)
    }

    /// Resource carrying traffic from the parent towards `id`, or `None`
    /// for the root.
    pub fn downlink_resource(&self, id: NodeId) -> Option<ResourceId> {
        self.nodes.get(id.index())?.uplink.map(|l| l.down)
    }

    /// Computes the ordered list of directed link resources a transfer from
    /// `from` to `to` traverses (up to the lowest common ancestor, then
    /// down).
    ///
    /// # Errors
    ///
    /// * [`TopologyError::UnknownNode`] if either endpoint is not in the
    ///   topology.
    /// * [`TopologyError::SameEndpoint`] if `from == to` (a zero-hop route
    ///   would model an on-chip copy, which the caller should express as a
    ///   memory-port resource instead).
    pub fn route(&self, from: NodeId, to: NodeId) -> Result<Vec<ResourceId>, TopologyError> {
        let mut route = Vec::new();
        self.route_into(from, to, &mut route)?;
        Ok(route)
    }

    /// [`TopologyInstance::route`], appended to `out` instead of returned
    /// in a vector of its own (so many routes can share one buffer).
    ///
    /// # Errors
    ///
    /// As [`TopologyInstance::route`]; `out` is left unchanged.
    pub fn route_into(
        &self,
        from: NodeId,
        to: NodeId,
        out: &mut Vec<ResourceId>,
    ) -> Result<(), TopologyError> {
        let n = self.nodes.len();
        if from.index() >= n {
            return Err(TopologyError::UnknownNode(from.index()));
        }
        if to.index() >= n {
            return Err(TopologyError::UnknownNode(to.index()));
        }
        if from == to {
            return Err(TopologyError::SameEndpoint(from.index()));
        }

        // Count the hops up from `from` and down to `to` by walking both
        // endpoints to the same depth, then in lockstep to the LCA; then
        // append the route (the down hops are met in reverse).
        let depth = |id: NodeId| self.nodes[id.index()].depth;
        let link = |id: NodeId| self.nodes[id.index()].uplink.expect("a non-root node has a link");
        let (mut a, mut b) = (from, to);
        let (mut up, mut down) = (0, 0);
        while depth(a) > depth(b) {
            a = link(a).parent;
            up += 1;
        }
        while depth(b) > depth(a) {
            b = link(b).parent;
            down += 1;
        }
        while a != b {
            a = link(a).parent;
            b = link(b).parent;
            up += 1;
            down += 1;
        }
        out.reserve(up + down);
        let mut a = from;
        for _ in 0..up {
            out.push(link(a).up);
            a = link(a).parent;
        }
        let start = out.len();
        let mut b = to;
        for _ in 0..down {
            out.push(link(b).down);
            b = link(b).parent;
        }
        out[start..].reverse();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcie::PcieGen;
    use hilos_sim::SimTime;

    fn x4g3() -> LinkSpec {
        LinkSpec::new(PcieGen::Gen3, 4)
    }
    fn x16g4() -> LinkSpec {
        LinkSpec::new(PcieGen::Gen4, 16)
    }

    #[test]
    fn route_device_to_host_is_uplinks() {
        let mut t = Topology::new();
        let sw = t.add_node(t.root(), x16g4());
        let dev = t.add_node(sw, x4g3());
        let mut eng = FlowEngine::new();
        let inst = t.instantiate(&mut eng);
        let r = inst.route(dev, t.root()).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0], inst.uplink_resource(dev).unwrap());
        assert_eq!(r[1], inst.uplink_resource(sw).unwrap());
    }

    #[test]
    fn route_between_siblings_goes_through_parent() {
        let mut t = Topology::new();
        let sw = t.add_node(t.root(), x16g4());
        let a = t.add_node(sw, x4g3());
        let b = t.add_node(sw, x4g3());
        let mut eng = FlowEngine::new();
        let inst = t.instantiate(&mut eng);
        let r = inst.route(a, b).unwrap();
        // a->sw (up), sw->b (down). Does not touch the host uplink: P2P
        // stays inside the switch, as in the SmartSSD chassis.
        assert_eq!(r, vec![inst.uplink_resource(a).unwrap(), inst.downlink_resource(b).unwrap()]);
    }

    #[test]
    fn route_across_switches() {
        let mut t = Topology::new();
        let s1 = t.add_node(t.root(), x16g4());
        let s2 = t.add_node(t.root(), x16g4());
        let a = t.add_node(s1, x4g3());
        let b = t.add_node(s2, x4g3());
        let mut eng = FlowEngine::new();
        let inst = t.instantiate(&mut eng);
        let r = inst.route(a, b).unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r[0], inst.uplink_resource(a).unwrap());
        assert_eq!(r[1], inst.uplink_resource(s1).unwrap());
        assert_eq!(r[2], inst.downlink_resource(s2).unwrap());
        assert_eq!(r[3], inst.downlink_resource(b).unwrap());
    }

    #[test]
    fn errors_on_bad_endpoints() {
        let t = Topology::new();
        let mut eng = FlowEngine::new();
        let inst = t.instantiate(&mut eng);
        assert_eq!(inst.route(t.root(), t.root()), Err(TopologyError::SameEndpoint(0)));
        assert_eq!(inst.route(t.root(), NodeId(7)), Err(TopologyError::UnknownNode(7)));
    }

    #[test]
    fn full_duplex_links_do_not_contend() {
        let mut t = Topology::new();
        let dev = t.add_node(t.root(), x16g4());
        let mut eng = FlowEngine::new();
        let inst = t.instantiate(&mut eng);
        let up = inst.route(dev, t.root()).unwrap();
        let down = inst.route(t.root(), dev).unwrap();
        let bw = x16g4().bandwidth();
        eng.submit(&up, bw, None).unwrap();
        eng.submit(&down, bw, None).unwrap();
        // Both directions run at full rate: total time is 1 s, not 2 s.
        let end = eng.run_to_idle().unwrap();
        assert_eq!(end, SimTime::from_secs(1));
    }

    #[test]
    fn shared_uplink_contention_matches_fig3() {
        // 4 devices behind one Gen4 x16 uplink, each with a Gen3 x4 link.
        // Aggregate device bandwidth (4 x 3.94 = 15.8 GB/s) fits the uplink,
        // but 16 devices (63 GB/s) saturate it.
        let build = |n: usize| {
            let mut t = Topology::new();
            let sw = t.add_node(t.root(), x16g4());
            let devs: Vec<_> = (0..n).map(|_| t.add_node(sw, x4g3())).collect();
            let mut eng = FlowEngine::new();
            let inst = t.instantiate(&mut eng);
            for d in &devs {
                let route = inst.route(*d, t.root()).unwrap();
                eng.submit(&route, 1e9, None).unwrap();
            }
            eng.run_to_idle().unwrap().as_secs_f64()
        };
        let t4 = build(4);
        let t16 = build(16);
        // 4 devices: device-link bound (1e9/3.94e9 s each, parallel).
        assert!((t4 - 1.0 / 3.94).abs() < 0.01, "t4={t4}");
        // 16 devices: uplink bound (16e9 / 31.5e9 s).
        assert!((t16 - 16.0 / 31.5).abs() < 0.01, "t16={t16}");
        assert!(t16 > t4 * 1.5);
    }

    #[test]
    fn the_default_topology_has_a_root_to_grow_from() {
        let mut t = Topology::default();
        assert!(t.is_empty());
        let dev = t.add_node(t.root(), x4g3());
        assert_eq!(t.len(), 2);
        let mut eng = FlowEngine::new();
        assert_eq!(t.instantiate(&mut eng).route(dev, t.root()).unwrap().len(), 1);
    }

    #[test]
    fn node_metadata_accessors() {
        let mut t = Topology::new();
        assert!(t.is_empty());
        let sw = t.add_node(t.root(), x16g4());
        t.add_node(sw, x4g3());
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }
}
