//! # hilos-interconnect — PCIe topology model
//!
//! Models the system interconnects of the paper's two platforms (Fig. 3):
//! a conventional server where each SSD owns a dedicated root port, and the
//! SmartSSD expansion chassis where 16 NSP devices share a single ×16
//! uplink through a PCIe switch — the topology that makes host-side KV
//! traffic saturate while NSP-internal paths stay private.
//!
//! The model is a **tree of nodes connected by full-duplex links**: a
//! node (host, switch or endpoint) is only its link to its parent. Each
//! link direction (towards the root / away from it) becomes one bandwidth
//! resource in the [`hilos_sim::FlowEngine`], so simultaneous reads and
//! writes do not contend with each other but flows in the same direction
//! share max-min fairly.
//!
//! # Example
//!
//! ```
//! use hilos_interconnect::{LinkSpec, PcieGen, Topology};
//! use hilos_sim::FlowEngine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut topo = Topology::new();
//! let switch = topo.add_node(topo.root(), LinkSpec::new(PcieGen::Gen4, 16));
//! let ssd = topo.add_node(switch, LinkSpec::new(PcieGen::Gen3, 4));
//!
//! let mut eng = FlowEngine::new();
//! let inst = topo.instantiate(&mut eng);
//! let downstream = inst.route(topo.root(), ssd)?;
//! assert_eq!(downstream.len(), 2); // host->switch, switch->ssd
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pcie;
mod topology;

pub use pcie::{LinkSpec, PcieGen};
pub use topology::{NodeId, Topology, TopologyError, TopologyInstance};
