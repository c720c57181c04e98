//! Property tests for topology routing.

use hilos_interconnect::{LinkSpec, NodeId, PcieGen, Topology};
use hilos_sim::FlowEngine;
use proptest::prelude::*;

/// Builds a random tree of `n` nodes under the root, parents chosen among
/// earlier nodes.
fn random_tree(parents: &[usize]) -> (Topology, Vec<NodeId>) {
    let mut topo = Topology::new();
    let mut nodes = vec![topo.root()];
    for (i, &p) in parents.iter().enumerate() {
        let parent = nodes[p % nodes.len()];
        let link = if i % 2 == 0 {
            LinkSpec::new(PcieGen::Gen4, 8)
        } else {
            LinkSpec::new(PcieGen::Gen3, 4)
        };
        nodes.push(topo.add_node(parent, link));
    }
    (topo, nodes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every pair of distinct nodes has a route; its length equals the
    /// tree distance; and the reverse route has equal length.
    #[test]
    fn routes_exist_and_are_symmetric_in_length(
        parents in prop::collection::vec(0usize..8, 1..12),
        a_pick in any::<usize>(),
        b_pick in any::<usize>(),
    ) {
        let (topo, nodes) = random_tree(&parents);
        let mut eng = FlowEngine::new();
        let inst = topo.instantiate(&mut eng);
        let a = nodes[a_pick % nodes.len()];
        let b = nodes[b_pick % nodes.len()];
        if a == b {
            prop_assert!(inst.route(a, b).is_err());
            return Ok(());
        }
        let fwd = inst.route(a, b).unwrap();
        let rev = inst.route(b, a).unwrap();
        prop_assert_eq!(fwd.len(), rev.len());
        prop_assert!(!fwd.is_empty());
        // Opposite directions never share a resource.
        for r in &fwd {
            prop_assert!(!rev.contains(r), "shared directed link between directions");
        }
    }

    /// Routes through the tree touch each link at most once (no cycles).
    #[test]
    fn routes_are_simple_paths(
        parents in prop::collection::vec(0usize..6, 1..14),
        a_pick in any::<usize>(),
        b_pick in any::<usize>(),
    ) {
        let (topo, nodes) = random_tree(&parents);
        let mut eng = FlowEngine::new();
        let inst = topo.instantiate(&mut eng);
        let a = nodes[a_pick % nodes.len()];
        let b = nodes[b_pick % nodes.len()];
        prop_assume!(a != b);
        let route = inst.route(a, b).unwrap();
        let mut seen = std::collections::HashSet::new();
        for r in &route {
            prop_assert!(seen.insert(*r), "link repeated on route");
        }
        // A tree route can never exceed the node count in hops.
        prop_assert!(route.len() <= nodes.len());
    }

    /// A transfer along any route completes in the time implied by its
    /// slowest link (no phantom contention).
    #[test]
    fn single_flow_matches_bottleneck(
        parents in prop::collection::vec(0usize..4, 1..8),
        bytes in 1.0e6..1.0e10f64,
    ) {
        let (topo, nodes) = random_tree(&parents);
        let mut eng = FlowEngine::new();
        let inst = topo.instantiate(&mut eng);
        let leaf = *nodes.last().unwrap();
        prop_assume!(leaf != topo.root());
        let route = inst.route(leaf, topo.root()).unwrap();
        let bottleneck = route
            .iter()
            .map(|r| eng.resource(*r).capacity())
            .fold(f64::INFINITY, f64::min);
        eng.submit(&route, bytes, None).unwrap();
        let end = eng.run_to_idle().unwrap().as_secs_f64();
        let expect = bytes / bottleneck;
        prop_assert!((end - expect).abs() / expect < 1e-6, "end={end} expect={expect}");
    }
}
