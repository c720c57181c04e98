//! # hilos-platform — device catalog and system builder
//!
//! Assembles the simulated machines of the paper's evaluation (Table 1):
//! host, GPU, conventional SSD arrays, SmartSSD expansion chassis and the
//! envisioned ISP-CSDs of §7.1, with the prices and power draws used by
//! the cost (Fig. 16a) and energy (Fig. 17a) analyses.
//!
//! A [`SystemSpec`] answers the static questions (B_SSD, B_PCI, the
//! per-device SSD specs under straggler injection, the KV shard ledger)
//! by itself; [`BuiltSystem::build`] turns it into a single
//! [`hilos_sim::FlowEngine`] world: PCIe links from the Fig. 3 topologies,
//! DRAM/HBM ports, SSD channels and (optionally) near-storage accelerator
//! engines, plus the route helpers the HILOS and baseline schedulers use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
mod system;

pub use catalog::{
    expansion_chassis_price_usd, pm9a3_price_power, smartssd_price_power, GpuSpec, HostSpec,
    PowerSpec, StoragePricePower,
};
pub use system::{
    BuiltSystem, DeviceClass, DeviceResources, StorageConfig, SystemError, SystemSpec,
};
