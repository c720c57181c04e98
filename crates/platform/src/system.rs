//! System specifications and their materialization as simulation worlds.
//!
//! A [`SystemSpec`] describes a whole machine (host + GPU + storage
//! complex); [`BuiltSystem::build`] instantiates it: every link, memory
//! port, storage channel and compute engine becomes a resource in one
//! [`FlowEngine`], wired by the PCIe topology of Fig. 3.

use crate::catalog::{GpuSpec, HostSpec, StoragePricePower};
use hilos_accel::AccelTimingModel;
use hilos_interconnect::{LinkSpec, NodeId, PcieGen, Topology, TopologyInstance};
use hilos_sim::{FlowEngine, ResourceId, ResourceKind, ResourceSpec};
use hilos_storage::{KvShardLedger, ShardSpec, SsdDevice, SsdInstance, SsdSpec};
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

/// The storage complex of a system.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageConfig {
    /// Conventional SSDs, each on a dedicated ×4 root port (Fig. 3a) and
    /// RAID-0'd together by software (mdadm, §6.1).
    ConventionalSsds {
        /// Number of drives.
        count: usize,
        /// Drive model.
        spec: SsdSpec,
        /// Per-drive link.
        link: LinkSpec,
    },
    /// SmartSSDs behind a PCIe expansion chassis: a single ×16 uplink
    /// fans out to ×8 switch ports carrying two devices each (Fig. 9a).
    SmartSsdChassis {
        /// Number of SmartSSDs (the paper uses 4/8/16).
        count: usize,
        /// Whether the FPGAs are usable (disabled for the
        /// FLEX(16 PCIe 3.0 SSDs) baseline).
        fpga_enabled: bool,
    },
    /// Envisioned ISP-CSDs (§7.1): high internal bandwidth, PCIe 4.0 ×4
    /// host links on dedicated root ports.
    IspCsd {
        /// Number of devices.
        count: usize,
    },
}

impl StorageConfig {
    /// Number of storage devices.
    pub fn device_count(&self) -> usize {
        match self {
            StorageConfig::ConventionalSsds { count, .. } => *count,
            StorageConfig::SmartSsdChassis { count, .. } => *count,
            StorageConfig::IspCsd { count } => *count,
        }
    }

    /// The per-device SSD spec.
    pub fn ssd_spec(&self) -> SsdSpec {
        match self {
            StorageConfig::ConventionalSsds { spec, .. } => spec.clone(),
            StorageConfig::SmartSsdChassis { .. } => SsdSpec::smartssd_nvme(),
            StorageConfig::IspCsd { .. } => SsdSpec::isp_csd(),
        }
    }

    /// True if near-storage accelerators are available.
    pub fn has_accelerators(&self) -> bool {
        matches!(
            self,
            StorageConfig::SmartSsdChassis { fpga_enabled: true, .. }
                | StorageConfig::IspCsd { .. }
        )
    }
}

/// A complete machine description.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// Description, used in reports.
    pub name: String,
    /// Host platform.
    pub host: HostSpec,
    /// The GPU.
    pub gpu: GpuSpec,
    /// Storage complex.
    pub storage: StorageConfig,
    /// Storage price/power entry for cost and energy models.
    pub storage_price_power: StoragePricePower,
    /// Extra platform price (expansion chassis), USD.
    pub extra_price_usd: f64,
}

impl SystemSpec {
    /// The paper's HILOS testbed: A100 + 16-slot SmartSSD chassis.
    pub fn a100_server() -> Self {
        SystemSpec {
            name: "A100 + SmartSSD chassis".to_string(),
            host: HostSpec::xeon_512g(),
            gpu: GpuSpec::a100_40g(),
            storage: StorageConfig::SmartSsdChassis { count: 16, fpga_enabled: true },
            storage_price_power: crate::catalog::smartssd_price_power(),
            extra_price_usd: crate::catalog::expansion_chassis_price_usd(),
        }
    }

    /// Same chassis with `count` SmartSSDs.
    pub fn a100_smartssd(count: usize) -> Self {
        let mut s = SystemSpec::a100_server();
        s.name = format!("A100 + {count} SmartSSDs");
        s.storage = StorageConfig::SmartSsdChassis { count, fpga_enabled: true };
        s
    }

    /// H100 variant of the HILOS testbed (Fig. 16a).
    pub fn h100_smartssd(count: usize) -> Self {
        let mut s = SystemSpec::a100_smartssd(count);
        s.name = format!("H100 + {count} SmartSSDs");
        s.gpu = GpuSpec::h100_80g();
        s
    }

    /// The FLEX(SSD) baseline: A100 + four PM9A3 on dedicated root ports.
    pub fn a100_pm9a3(count: usize) -> Self {
        SystemSpec {
            name: format!("A100 + {count} PM9A3"),
            host: HostSpec::xeon_512g(),
            gpu: GpuSpec::a100_40g(),
            storage: StorageConfig::ConventionalSsds {
                count,
                spec: SsdSpec::pm9a3(),
                link: LinkSpec::new(PcieGen::Gen4, 4),
            },
            storage_price_power: crate::catalog::pm9a3_price_power(),
            extra_price_usd: 0.0,
        }
    }

    /// H100 variant of the conventional-SSD baseline.
    pub fn h100_pm9a3(count: usize) -> Self {
        let mut s = SystemSpec::a100_pm9a3(count);
        s.name = format!("H100 + {count} PM9A3");
        s.gpu = GpuSpec::h100_80g();
        s
    }

    /// The FLEX(16 PCIe 3.0 SSDs) baseline: the SmartSSD chassis with the
    /// FPGAs disabled.
    pub fn a100_chassis_no_fpga(count: usize) -> Self {
        let mut s = SystemSpec::a100_smartssd(count);
        s.name = format!("A100 + {count} SmartSSDs (FPGA off)");
        s.storage = StorageConfig::SmartSsdChassis { count, fpga_enabled: false };
        s
    }

    /// The envisioned ISP-CSD system of §7.1.
    pub fn a100_isp(count: usize) -> Self {
        SystemSpec {
            name: format!("A100 + {count} ISP-CSD"),
            host: HostSpec::xeon_512g(),
            gpu: GpuSpec::a100_40g(),
            storage: StorageConfig::IspCsd { count },
            storage_price_power: crate::catalog::smartssd_price_power(),
            extra_price_usd: 0.0,
        }
    }

    /// Total hardware price in USD (Fig. 16a's normalization basis).
    pub fn total_price_usd(&self) -> f64 {
        self.host.price_usd
            + self.gpu.price_usd
            + self.storage.device_count() as f64 * self.storage_price_power.price_usd
            + self.extra_price_usd
    }
}

/// Errors from system building.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SystemError {
    /// The storage configuration has no devices.
    NoStorageDevices,
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::NoStorageDevices => write!(f, "system needs at least one storage device"),
        }
    }
}

impl Error for SystemError {}

/// Per-device resources of a built system.
#[derive(Debug, Clone)]
pub struct DeviceResources {
    /// Topology node of the device.
    pub node: NodeId,
    /// SSD read/write channels.
    pub ssd: SsdInstance,
    /// On-board accelerator DRAM port, if the device has an FPGA.
    pub fpga_dram: Option<ResourceId>,
    /// Accelerator compute engine, if enabled (capacity = sustained
    /// FLOP/s of the configured kernel).
    pub accel: Option<ResourceId>,
    /// Internal P2P path from flash to the FPGA (one direction), if any.
    pub internal_path: Option<ResourceId>,
}

/// The routes between the host, the GPU and one storage device.
#[derive(Debug)]
struct DeviceRoutes {
    to_host: Vec<ResourceId>,
    from_host: Vec<ResourceId>,
    to_gpu: Vec<ResourceId>,
    from_gpu: Vec<ResourceId>,
}

/// Every route the step builders ask for, walked once from the topology.
#[derive(Debug)]
struct Routes {
    host_to_gpu: Vec<ResourceId>,
    devices: Vec<DeviceRoutes>,
}

/// A [`SystemSpec`] materialized into a [`FlowEngine`].
#[derive(Debug)]
pub struct BuiltSystem {
    /// The simulation engine owning every resource.
    pub engine: FlowEngine,
    /// The spec this world was built from.
    pub spec: SystemSpec,
    /// Host DRAM port.
    pub host_dram: ResourceId,
    /// Host CPU compute engine.
    pub cpu: ResourceId,
    /// GPU compute engine.
    pub gpu: ResourceId,
    /// GPU HBM port.
    pub gpu_hbm: ResourceId,
    /// PCIe topology instance.
    pub topo: TopologyInstance,
    /// Host root-complex node.
    pub host_node: NodeId,
    /// GPU node.
    pub gpu_node: NodeId,
    /// Storage devices in index order.
    pub devices: Vec<DeviceResources>,
    /// Mutable SSD device states (counters), index-aligned with `devices`.
    pub ssd_states: Vec<SsdDevice>,
    /// Routes, resolved on first use: a world that only answers capacity
    /// questions never walks the topology.
    routes: OnceLock<Routes>,
}

impl BuiltSystem {
    /// Builds the simulation world for `spec`.
    ///
    /// `accel_model` configures the near-storage accelerators (ignored if
    /// the storage has none); `head_dim` sets their sustained-throughput
    /// operating point.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::NoStorageDevices`] for an empty storage
    /// config.
    pub fn build(
        spec: &SystemSpec,
        accel_model: Option<&AccelTimingModel>,
        head_dim: u32,
    ) -> Result<BuiltSystem, SystemError> {
        BuiltSystem::build_with_degradations(spec, accel_model, head_dim, &[])
    }

    /// Like [`BuiltSystem::build`], but with straggler injection: each
    /// `(device_index, factor)` entry scales that device's read/write
    /// bandwidth (e.g. `(3, 0.5)` halves device 3). Out-of-range indices
    /// are ignored.
    pub fn build_with_degradations(
        spec: &SystemSpec,
        accel_model: Option<&AccelTimingModel>,
        head_dim: u32,
        degradations: &[(usize, f64)],
    ) -> Result<BuiltSystem, SystemError> {
        if spec.storage.device_count() == 0 {
            return Err(SystemError::NoStorageDevices);
        }
        let mut engine = FlowEngine::new();

        let host_dram = engine.add_resource(ResourceSpec::new(
            "host:dram",
            ResourceKind::Memory,
            spec.host.dram_bw,
        ));
        let cpu = engine.add_resource(ResourceSpec::new(
            "host:cpu",
            ResourceKind::Compute,
            spec.host.cpu_flops,
        ));
        let gpu = engine.add_resource(ResourceSpec::new(
            format!("gpu:{}", spec.gpu.name),
            ResourceKind::Compute,
            spec.gpu.fp16_flops,
        ));
        let gpu_hbm = engine.add_resource(ResourceSpec::new(
            "gpu:hbm",
            ResourceKind::Memory,
            spec.gpu.hbm_bw,
        ));

        // PCIe topology.
        let mut topo = Topology::new("host");
        let gpu_node = topo.add_device("gpu", topo.root(), spec.gpu.link);
        let mut device_nodes = Vec::new();
        match &spec.storage {
            StorageConfig::ConventionalSsds { count, link, .. } => {
                for i in 0..*count {
                    device_nodes.push(topo.add_device(format!("ssd{i}"), topo.root(), *link));
                }
            }
            StorageConfig::SmartSsdChassis { count, .. } => {
                // One x16 uplink -> switch; x8 ports carry two devices each.
                let chassis =
                    topo.add_switch("chassis", topo.root(), LinkSpec::new(PcieGen::Gen4, 16));
                let ports = count.div_ceil(2);
                for p in 0..ports {
                    let port = topo.add_switch(
                        format!("port{p}"),
                        chassis,
                        LinkSpec::new(PcieGen::Gen4, 8),
                    );
                    for d in 0..2 {
                        let idx = p * 2 + d;
                        if idx < *count {
                            device_nodes.push(topo.add_device(
                                format!("smartssd{idx}"),
                                port,
                                LinkSpec::new(PcieGen::Gen3, 4),
                            ));
                        }
                    }
                }
            }
            StorageConfig::IspCsd { count } => {
                for i in 0..*count {
                    device_nodes.push(topo.add_device(
                        format!("isp{i}"),
                        topo.root(),
                        LinkSpec::new(PcieGen::Gen4, 4),
                    ));
                }
            }
        }
        let topo_inst = topo.instantiate(&mut engine);
        let host_node = topo.root();

        // Storage devices and their internals.
        let ssd_spec = spec.storage.ssd_spec();
        let with_accel = spec.storage.has_accelerators();
        let mut devices = Vec::new();
        let mut ssd_states = Vec::new();
        for (i, node) in device_nodes.iter().enumerate() {
            let mut dev_spec = ssd_spec.clone();
            for (idx, factor) in degradations {
                if *idx == i {
                    dev_spec = dev_spec.scaled(*factor);
                }
            }
            let ssd_dev = SsdDevice::new(dev_spec);
            let ssd = ssd_dev.instantiate(&mut engine);
            let (fpga_dram, accel, internal_path) = if with_accel {
                let dram = engine.add_resource(ResourceSpec::new(
                    format!("accel{i}:dram"),
                    ResourceKind::Memory,
                    match spec.storage {
                        StorageConfig::IspCsd { .. } => 68e9, // LPDDR5X (§7.1)
                        _ => 19.2e9,                          // DDR4-2400
                    },
                ));
                let model = accel_model.copied().unwrap_or_else(|| AccelTimingModel::smartssd(1));
                let flops = model.sustained_gflops(head_dim) * 1e9;
                let comp = engine.add_resource(ResourceSpec::new(
                    format!("accel{i}:compute"),
                    ResourceKind::Compute,
                    flops,
                ));
                let internal = engine.add_resource(ResourceSpec::new(
                    format!("accel{i}:p2p"),
                    ResourceKind::Link,
                    match spec.storage {
                        // §7.1: eight 2,000 MT/s flash channels, 16 GB/s.
                        StorageConfig::IspCsd { .. } => 16e9,
                        // SmartSSD internal PCIe 3.0 x4.
                        _ => LinkSpec::new(PcieGen::Gen3, 4).bandwidth(),
                    },
                ));
                (Some(dram), Some(comp), Some(internal))
            } else {
                (None, None, None)
            };
            devices.push(DeviceResources { node: *node, ssd, fpga_dram, accel, internal_path });
            ssd_states.push(ssd_dev);
        }

        Ok(BuiltSystem {
            engine,
            spec: spec.clone(),
            host_dram,
            cpu,
            gpu,
            gpu_hbm,
            topo: topo_inst,
            host_node,
            gpu_node,
            devices,
            ssd_states,
            routes: OnceLock::new(),
        })
    }

    fn routes(&self) -> &Routes {
        self.routes.get_or_init(|| {
            let route = |from, to| self.topo.route(from, to).expect("route exists");
            Routes {
                host_to_gpu: route(self.host_node, self.gpu_node),
                devices: self
                    .devices
                    .iter()
                    .map(|d| DeviceRoutes {
                        to_host: route(d.node, self.host_node),
                        from_host: route(self.host_node, d.node),
                        to_gpu: route(d.node, self.gpu_node),
                        from_gpu: route(self.gpu_node, d.node),
                    })
                    .collect(),
            }
        })
    }

    /// Route (directed link resources) from a storage device to the host.
    ///
    /// All routes are walked from the topology once, on the first route
    /// query, and served from that table afterwards.
    pub fn device_to_host_route(&self, device: usize) -> &[ResourceId] {
        &self.routes().devices[device].to_host
    }

    /// Route from the host to a storage device.
    pub fn host_to_device_route(&self, device: usize) -> &[ResourceId] {
        &self.routes().devices[device].from_host
    }

    /// Route from a device directly to the GPU (GPUDirect Storage / P2P).
    pub fn device_to_gpu_route(&self, device: usize) -> &[ResourceId] {
        &self.routes().devices[device].to_gpu
    }

    /// Route from the host to the GPU.
    pub fn host_to_gpu_route(&self) -> &[ResourceId] {
        &self.routes().host_to_gpu
    }

    /// Route from the GPU to a device (e.g. scattering fresh Q/K/V).
    pub fn gpu_to_device_route(&self, device: usize) -> &[ResourceId] {
        &self.routes().devices[device].from_gpu
    }

    /// A per-device KV shard ledger over this system's devices: capacity
    /// from each device's spec, placement weight from its sustained
    /// internal read bandwidth. Degraded (straggler) devices were built
    /// with scaled-down bandwidth, so the ledger automatically skews
    /// placement away from them — the stripe stays balanced in *time*
    /// rather than in bytes.
    pub fn kv_ledger(&self) -> KvShardLedger {
        KvShardLedger::new(
            self.ssd_states
                .iter()
                .map(|d| ShardSpec {
                    capacity_bytes: d.spec().capacity_bytes(),
                    weight: d.spec().seq_read_bw(),
                })
                .collect(),
        )
    }

    /// Aggregate *internal* storage read bandwidth available to the
    /// accelerators (B_SSD of the §4.2 α model).
    pub fn aggregate_internal_read_bw(&self) -> f64 {
        let per = self.spec.storage.ssd_spec().seq_read_bw();
        per * self.devices.len() as f64
    }

    /// Effective host-interconnect bandwidth for device→GPU X-cache reads
    /// (B_PCI of the §4.2 α model): bounded by the devices' host links and
    /// any shared uplink.
    pub fn effective_pci_bw(&self) -> f64 {
        let n = self.devices.len() as f64;
        match &self.spec.storage {
            StorageConfig::ConventionalSsds { link, .. } => {
                (link.bandwidth() * n).min(self.spec.gpu.link.bandwidth())
            }
            StorageConfig::SmartSsdChassis { .. } => {
                let per_dev = LinkSpec::new(PcieGen::Gen3, 4).bandwidth() * n;
                let uplink = LinkSpec::new(PcieGen::Gen4, 16).bandwidth();
                per_dev.min(uplink).min(self.spec.gpu.link.bandwidth())
            }
            StorageConfig::IspCsd { .. } => (LinkSpec::new(PcieGen::Gen4, 4).bandwidth() * n)
                .min(self.spec.gpu.link.bandwidth()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_smartssd_chassis() {
        let spec = SystemSpec::a100_smartssd(16);
        let sys = BuiltSystem::build(&spec, Some(&AccelTimingModel::smartssd(1)), 128).unwrap();
        assert_eq!(sys.devices.len(), 16);
        assert!(sys.devices.iter().all(|d| d.accel.is_some()));
        // Each device routes to the host through port + chassis uplinks.
        let route = sys.device_to_host_route(0);
        assert_eq!(route.len(), 3);
    }

    #[test]
    fn builds_conventional_array() {
        let spec = SystemSpec::a100_pm9a3(4);
        let sys = BuiltSystem::build(&spec, None, 128).unwrap();
        assert_eq!(sys.devices.len(), 4);
        assert!(sys.devices.iter().all(|d| d.accel.is_none()));
        // Dedicated root port: single-hop route.
        assert_eq!(sys.device_to_host_route(0).len(), 1);
    }

    #[test]
    fn chassis_without_fpga_has_no_accelerators() {
        let spec = SystemSpec::a100_chassis_no_fpga(16);
        let sys = BuiltSystem::build(&spec, None, 128).unwrap();
        assert!(sys.devices.iter().all(|d| d.accel.is_none()));
        assert!(!spec.storage.has_accelerators());
    }

    #[test]
    fn empty_storage_rejected() {
        let mut spec = SystemSpec::a100_pm9a3(4);
        spec.storage = StorageConfig::ConventionalSsds {
            count: 0,
            spec: SsdSpec::pm9a3(),
            link: LinkSpec::new(PcieGen::Gen4, 4),
        };
        assert_eq!(
            BuiltSystem::build(&spec, None, 128).unwrap_err(),
            SystemError::NoStorageDevices
        );
    }

    #[test]
    fn kv_ledger_skews_away_from_degraded_devices() {
        let spec = SystemSpec::a100_smartssd(4);
        let sys = BuiltSystem::build_with_degradations(
            &spec,
            Some(&AccelTimingModel::smartssd(1)),
            128,
            &[(1, 0.25)],
        )
        .unwrap();
        let mut ledger = sys.kv_ledger();
        assert_eq!(ledger.device_count(), 4);
        let placed = ledger.allocate(0, 1 << 30).unwrap();
        assert!(
            placed[1] * 3 < placed[0],
            "degraded device 1 should hold ~1/4 the healthy share: {placed:?}"
        );
        assert_eq!(placed.iter().sum::<u64>(), 1 << 30);
    }

    #[test]
    fn price_matches_fig16a_configuration() {
        // Baseline: $15k host + $7k A100 + 4 x $400 SSD = $23.6k.
        let flex = SystemSpec::a100_pm9a3(4);
        assert_eq!(flex.total_price_usd(), 23_600.0);
        // HILOS: + $10k chassis + 16 x $2,400 = $70.4k total.
        let hilos = SystemSpec::a100_smartssd(16);
        assert_eq!(hilos.total_price_usd(), 70_400.0);
    }

    #[test]
    fn alpha_model_bandwidth_ratio_near_3() {
        // §6.4: B_SSD / B_PCI ≈ 3 on the paper's 16-device testbed
        // (51.2 GB/s internal vs ~15.8 GB/s of Gen3 host links... bounded
        // by the uplink). Our model should land in the same regime.
        let sys = BuiltSystem::build(
            &SystemSpec::a100_smartssd(16),
            Some(&AccelTimingModel::smartssd(1)),
            128,
        )
        .unwrap();
        let ratio = sys.aggregate_internal_read_bw() / sys.effective_pci_bw();
        assert!((1.0..4.0).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn gds_route_bypasses_host_dram() {
        let sys = BuiltSystem::build(
            &SystemSpec::a100_smartssd(4),
            Some(&AccelTimingModel::smartssd(1)),
            128,
        )
        .unwrap();
        let route = sys.device_to_gpu_route(0);
        // device -> port -> chassis -> (root) -> gpu: 4 directed links.
        assert_eq!(route.len(), 4);
        assert!(!route.contains(&sys.host_dram));
    }

    #[test]
    fn isp_matches_four_smartssds_in_bandwidth() {
        // §7.1: one ISP-CSD ≈ four SmartSSDs in internal bandwidth.
        let isp =
            BuiltSystem::build(&SystemSpec::a100_isp(1), Some(&AccelTimingModel::smartssd(1)), 128)
                .unwrap();
        let four = BuiltSystem::build(
            &SystemSpec::a100_smartssd(4),
            Some(&AccelTimingModel::smartssd(1)),
            128,
        )
        .unwrap();
        let r_isp = isp.aggregate_internal_read_bw();
        let r_four = four.aggregate_internal_read_bw();
        assert!((r_isp / r_four - 1.25).abs() < 0.3, "isp={r_isp} four={r_four}");
    }
}
