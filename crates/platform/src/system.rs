//! System specifications and their materialization as simulation worlds.
//!
//! A [`SystemSpec`] describes a whole machine (host + GPU + storage
//! complex) and answers its static questions — the §4.2 bandwidths, the
//! per-device (possibly degraded) SSD specs and the KV shard ledger over
//! them — without building anything. [`BuiltSystem::build`] instantiates
//! it for graph execution: every link, memory port, storage channel and
//! compute engine becomes a resource in one [`FlowEngine`], wired by the
//! PCIe topology of Fig. 3.

use crate::catalog::{GpuSpec, HostSpec, StoragePricePower};
use hilos_accel::AccelTimingModel;
use hilos_interconnect::{LinkSpec, NodeId, PcieGen, Topology, TopologyInstance};
use hilos_sim::{FlowEngine, Hop, Label, ResourceId, ResourceKind, ResourceSpec};
use hilos_storage::{KvShardLedger, NandGeometry, ShardSpec, SsdInstance, SsdSpec};
use std::cell::OnceCell;
use std::error::Error;
use std::fmt;

/// The storage complex of a system.
#[derive(Debug, Clone, Copy, PartialEq)]
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
            StorageConfig::ConventionalSsds { spec, .. } => *spec,
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
    /// Description of the machine family (GPU and storage kind), used in
    /// reports; the device count is `storage.device_count()`.
    pub name: &'static str,
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
            name: "A100 + SmartSSD chassis",
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
        s.name = "A100 + SmartSSDs";
        s.storage = StorageConfig::SmartSsdChassis { count, fpga_enabled: true };
        s
    }

    /// H100 variant of the HILOS testbed (Fig. 16a).
    pub fn h100_smartssd(count: usize) -> Self {
        let mut s = SystemSpec::a100_smartssd(count);
        s.name = "H100 + SmartSSDs";
        s.gpu = GpuSpec::h100_80g();
        s
    }

    /// The FLEX(SSD) baseline: A100 + four PM9A3 on dedicated root ports.
    pub fn a100_pm9a3(count: usize) -> Self {
        SystemSpec {
            name: "A100 + PM9A3",
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
        s.name = "H100 + PM9A3";
        s.gpu = GpuSpec::h100_80g();
        s
    }

    /// The FLEX(16 PCIe 3.0 SSDs) baseline: the SmartSSD chassis with the
    /// FPGAs disabled.
    pub fn a100_chassis_no_fpga(count: usize) -> Self {
        let mut s = SystemSpec::a100_smartssd(count);
        s.name = "A100 + SmartSSDs (FPGA off)";
        s.storage = StorageConfig::SmartSsdChassis { count, fpga_enabled: false };
        s
    }

    /// The envisioned ISP-CSD system of §7.1.
    pub fn a100_isp(count: usize) -> Self {
        SystemSpec {
            name: "A100 + ISP-CSD",
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

    /// Aggregate *internal* storage read bandwidth available to the
    /// accelerators (B_SSD of the §4.2 α model). It is the healthy
    /// devices' rate: a straggler does not lower it.
    pub fn aggregate_internal_read_bw(&self) -> f64 {
        self.storage.ssd_spec().seq_read_bw() * self.storage.device_count() as f64
    }

    /// Effective host-interconnect bandwidth for device→GPU X-cache reads
    /// (B_PCI of the §4.2 α model): bounded by the devices' host links and
    /// any shared uplink.
    pub fn effective_pci_bw(&self) -> f64 {
        let n = self.storage.device_count() as f64;
        let gpu_link = self.gpu.link.bandwidth();
        match &self.storage {
            StorageConfig::ConventionalSsds { link, .. } => (link.bandwidth() * n).min(gpu_link),
            StorageConfig::SmartSsdChassis { .. } => {
                let per_dev = LinkSpec::new(PcieGen::Gen3, 4).bandwidth() * n;
                let uplink = LinkSpec::new(PcieGen::Gen4, 16).bandwidth();
                per_dev.min(uplink).min(gpu_link)
            }
            StorageConfig::IspCsd { .. } => {
                (LinkSpec::new(PcieGen::Gen4, 4).bandwidth() * n).min(gpu_link)
            }
        }
    }

    /// Every storage device's spec in index order, with straggler
    /// injection: each `(device_index, factor)` entry scales that device's
    /// read/write bandwidth (e.g. `(3, 0.5)` halves device 3; a repeated
    /// index scales again). A simulation world instantiates exactly these
    /// devices.
    ///
    /// # Errors
    ///
    /// [`SystemError::NoStorageDevices`] for an empty storage config;
    /// for the first entry that names a device index the storage
    /// configuration does not have,
    /// [`SystemError::DegradedDeviceOutOfRange`], or that scales by a
    /// factor that is not finite and positive,
    /// [`SystemError::InvalidDegradation`].
    pub fn device_specs(&self, degradations: &[(usize, f64)]) -> Result<Vec<SsdSpec>, SystemError> {
        let devices = self.storage.device_count();
        if devices == 0 {
            return Err(SystemError::NoStorageDevices);
        }
        for &(index, factor) in degradations {
            if index >= devices {
                return Err(SystemError::DegradedDeviceOutOfRange { index, devices });
            }
            if !(factor.is_finite() && factor > 0.0) {
                return Err(SystemError::InvalidDegradation { index, factor });
            }
        }
        let healthy = self.storage.ssd_spec();
        Ok((0..devices)
            .map(|i| {
                degradations
                    .iter()
                    .filter(|&&(d, _)| d == i)
                    .fold(healthy, |spec, &(_, factor)| spec.scaled(factor))
            })
            .collect())
    }

    /// A per-device KV shard ledger over [`SystemSpec::device_specs`]:
    /// capacity from each device's spec, placement weight from its
    /// sustained read bandwidth. A degraded (straggler) device has
    /// scaled-down bandwidth, so the ledger skews placement away from it —
    /// the stripe stays balanced in *time* rather than in bytes.
    ///
    /// # Errors
    ///
    /// As [`SystemSpec::device_specs`].
    pub fn kv_ledger(&self, degradations: &[(usize, f64)]) -> Result<KvShardLedger, SystemError> {
        let shards = self
            .device_specs(degradations)?
            .iter()
            .map(|d| ShardSpec { capacity_bytes: d.capacity_bytes(), weight: d.seq_read_bw() })
            .collect();
        Ok(KvShardLedger::new(shards))
    }
}

/// Errors from resolving a spec's storage devices (and so from building it).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SystemError {
    /// The storage configuration has no devices.
    NoStorageDevices,
    /// A degradation names a device the storage configuration lacks.
    DegradedDeviceOutOfRange {
        /// The device index the degradation names.
        index: usize,
        /// Devices in the storage configuration.
        devices: usize,
    },
    /// A degradation scales a device's bandwidth by a factor that is not
    /// finite and positive.
    InvalidDegradation {
        /// The device index the degradation names.
        index: usize,
        /// The rejected factor.
        factor: f64,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::NoStorageDevices => write!(f, "system needs at least one storage device"),
            SystemError::DegradedDeviceOutOfRange { index, devices } => {
                write!(f, "degraded device {index} is out of range for {devices} devices")
            }
            SystemError::InvalidDegradation { index, factor } => {
                write!(f, "degraded device {index} has bandwidth factor {factor}, not finite and positive")
            }
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
    /// The chassis port node the device sits behind, if any.
    pub port: Option<NodeId>,
}

/// A run of consecutive storage devices that nothing in the model tells
/// apart: the same (possibly degraded) spec and, behind the chassis, each
/// on a port whose other device is in the class too. Its devices run
/// identical per-device chains at identical rates, so a step graph builds
/// one chain per class instead of one per device.
///
/// The class's first device stands for all of them: a class chain crosses
/// that device's own resources (SSD channels, internal path, FPGA DRAM,
/// accelerator, device link) with one copy, a chassis port whose two
/// devices are both in the class with two, and the chassis uplink, every
/// link above it and host DRAM with [`DeviceClass::count`] (see
/// [`hilos_sim::Hop`] and [`hilos_sim::TaskGraph::copies`]).
///
/// A homogeneous array is one class, unless its device count is odd
/// behind the chassis: the last device then has a port of its own and is
/// a class of its own. A straggler is a class of its own, and so is its
/// port-mate; the healthy devices before and after them are two classes,
/// so that each class is a run and every per-device sum keeps its order
/// (see [`hilos_sim::Timeline::category_seconds`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceClass {
    /// The class's first device, whose resources stand for the class.
    pub first: usize,
    /// Devices in the class.
    pub count: usize,
    /// Copies of the class's chains on the first device's chassis port: 2
    /// if its port-mate is in the class, else 1.
    port_copies: u32,
}

impl DeviceClass {
    /// A hop over `resource`, which every device of the class crosses:
    /// one copy per device.
    pub fn shared(self, resource: ResourceId) -> Hop {
        Hop::new(resource, self.count as u32)
    }

    /// `label` naming the class's devices.
    pub fn label(self, label: Label) -> Label {
        label.devices(self.first, self.count)
    }
}

/// Every route the step builders ask for, walked once from the topology
/// into one buffer: host → GPU first, then for each device class its
/// routes to the host, from the host, to the GPU and from the GPU. Route
/// `i` is `hops[ends[i - 1]..ends[i]]` (the first starts at 0).
#[derive(Debug)]
struct Routes {
    hops: Vec<Hop>,
    ends: Vec<u32>,
}

impl Routes {
    /// Route `i` in the order above.
    fn get(&self, i: usize) -> &[Hop] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.hops[start..self.ends[i] as usize]
    }

    /// A class's route of the given kind: 0 to the host, 1 from the host,
    /// 2 to the GPU, 3 from the GPU.
    fn class(&self, class: usize, kind: usize) -> &[Hop] {
        self.get(1 + 4 * class + kind)
    }
}

/// A [`SystemSpec`] materialized into a [`FlowEngine`].
///
/// Every device's resources are registered, but step graphs build one
/// chain per [`DeviceClass`]: the class's first device's resources stand
/// for the class, and its routes ([`BuiltSystem::class_to_host_route`]
/// and the like) cross each link with one copy per class device behind
/// it.
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
    /// Device classes in device order, covering every device once.
    classes: Vec<DeviceClass>,
    /// Routes, resolved on the first route query.
    routes: OnceCell<Routes>,
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

    /// Like [`BuiltSystem::build`], but with straggler injection: the
    /// storage devices are [`SystemSpec::device_specs`]`(degradations)`.
    ///
    /// # Errors
    ///
    /// As [`SystemSpec::device_specs`].
    pub fn build_with_degradations(
        spec: &SystemSpec,
        accel_model: Option<&AccelTimingModel>,
        head_dim: u32,
        degradations: &[(usize, f64)],
    ) -> Result<BuiltSystem, SystemError> {
        let device_specs = spec.device_specs(degradations)?;
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
            "gpu:compute",
            ResourceKind::Compute,
            spec.gpu.fp16_flops,
        ));
        let gpu_hbm = engine.add_resource(ResourceSpec::new(
            "gpu:hbm",
            ResourceKind::Memory,
            spec.gpu.hbm_bw,
        ));

        // PCIe topology.
        let mut topo = Topology::new();
        let gpu_node = topo.add_node(topo.root(), spec.gpu.link);
        // Each device's node and the chassis port it sits behind, if any.
        let n = device_specs.len();
        let mut device_nodes = Vec::with_capacity(n);
        match &spec.storage {
            StorageConfig::ConventionalSsds { count, link, .. } => {
                for _ in 0..*count {
                    device_nodes.push((topo.add_node(topo.root(), *link), None));
                }
            }
            StorageConfig::SmartSsdChassis { count, .. } => {
                // One x16 uplink -> switch; x8 ports carry two devices each.
                let chassis = topo.add_node(topo.root(), LinkSpec::new(PcieGen::Gen4, 16));
                let port_count = count.div_ceil(2);
                for p in 0..port_count {
                    let port = topo.add_node(chassis, LinkSpec::new(PcieGen::Gen4, 8));
                    for d in 0..2 {
                        let idx = p * 2 + d;
                        if idx < *count {
                            let node = topo.add_node(port, LinkSpec::new(PcieGen::Gen3, 4));
                            device_nodes.push((node, Some(port)));
                        }
                    }
                }
            }
            StorageConfig::IspCsd { count } => {
                for _ in 0..*count {
                    let node = topo.add_node(topo.root(), LinkSpec::new(PcieGen::Gen4, 4));
                    device_nodes.push((node, None));
                }
            }
        }
        // A device behind a port is paired if its port-mate has its spec.
        // Classes are runs of one spec, paired throughout behind the
        // chassis; an unpaired device there (a straggler, its port-mate,
        // the last of an odd count) is a class of its own, because its
        // port carries flows no other device's port does.
        let behind_port = |d: usize| device_nodes[d].1.is_some();
        let paired =
            |d: usize| behind_port(d) && (d ^ 1) < n && device_specs[d ^ 1] == device_specs[d];
        let mut classes: Vec<DeviceClass> = Vec::with_capacity(1);
        for d in 0..n {
            match classes.last_mut() {
                Some(c)
                    if device_specs[c.first] == device_specs[d]
                        && (!behind_port(d) || paired(c.first) && paired(d)) =>
                {
                    c.count += 1
                }
                _ => classes.push(DeviceClass {
                    first: d,
                    count: 1,
                    port_copies: if paired(d) { 2 } else { 1 },
                }),
            }
        }
        let topo_inst = topo.instantiate(&mut engine);
        let host_node = topo.root();

        // Storage devices and their internals.
        let with_accel = spec.storage.has_accelerators();
        let mut devices = Vec::with_capacity(device_nodes.len());
        for (&(node, port), dev_spec) in device_nodes.iter().zip(device_specs) {
            let ssd = SsdInstance::new(&dev_spec, &mut engine);
            let (fpga_dram, accel, internal_path) = if with_accel {
                let dram = engine.add_resource(ResourceSpec::new(
                    "accel:dram",
                    ResourceKind::Memory,
                    match spec.storage {
                        StorageConfig::IspCsd { .. } => 68e9, // LPDDR5X (§7.1)
                        _ => 19.2e9,                          // DDR4-2400
                    },
                ));
                let model = accel_model.copied().unwrap_or_else(|| AccelTimingModel::smartssd(1));
                let flops = model.sustained_gflops(head_dim) * 1e9;
                let comp = engine.add_resource(ResourceSpec::new(
                    "accel:compute",
                    ResourceKind::Compute,
                    flops,
                ));
                let internal = engine.add_resource(ResourceSpec::new(
                    "accel:p2p",
                    ResourceKind::Link,
                    match spec.storage {
                        // §7.1: eight 2,000 MT/s flash channels, 16 GB/s.
                        StorageConfig::IspCsd { .. } => {
                            NandGeometry::isp_csd().aggregate_channel_bw()
                        }
                        // SmartSSD internal PCIe 3.0 x4.
                        _ => LinkSpec::new(PcieGen::Gen3, 4).bandwidth(),
                    },
                ));
                (Some(dram), Some(comp), Some(internal))
            } else {
                (None, None, None)
            };
            devices.push(DeviceResources { node, ssd, fpga_dram, accel, internal_path, port });
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
            classes,
            routes: OnceCell::new(),
        })
    }

    /// The device classes, in device order: one chain per class is what
    /// a step graph builds (see [`DeviceClass`]).
    pub fn classes(&self) -> &[DeviceClass] {
        &self.classes
    }

    fn routes(&self) -> &Routes {
        self.routes.get_or_init(|| {
            let (host, gpu) = (self.host_node, self.gpu_node);
            let count = 1 + 4 * self.classes.len();
            let mut routes =
                Routes { hops: Vec::with_capacity(4 * count), ends: Vec::with_capacity(count) };
            let mut walked = Vec::with_capacity(4);
            let mut push = |from, to, copies: &dyn Fn(ResourceId) -> u32| {
                walked.clear();
                self.topo.route_into(from, to, &mut walked).expect("route exists");
                routes.hops.extend(walked.iter().map(|&r| Hop::new(r, copies(r))));
                routes.ends.push(routes.hops.len() as u32);
            };
            push(host, gpu, &|_| 1);
            for class in &self.classes {
                // The first device's own link carries one copy, its port
                // one per class device behind it, every link above the
                // port all of them.
                let node = self.devices[class.first].node;
                let links =
                    |n: NodeId| [self.topo.uplink_resource(n), self.topo.downlink_resource(n)];
                let own = links(node);
                let port = self.devices[class.first].port.map(links);
                let copies = |r: ResourceId| {
                    if own.contains(&Some(r)) {
                        1
                    } else if port.is_some_and(|p| p.contains(&Some(r))) {
                        class.port_copies
                    } else {
                        class.count as u32
                    }
                };
                for (from, to) in [(node, host), (host, node), (node, gpu), (gpu, node)] {
                    push(from, to, &copies);
                }
            }
            routes
        })
    }

    /// Route (directed link resources) from a device class to the host,
    /// crossed by the class's first device with one copy per class device
    /// on each shared link (see [`DeviceClass`]).
    ///
    /// All routes are walked from the topology once, on the first route
    /// query, and served from that table afterwards.
    pub fn class_to_host_route(&self, class: usize) -> &[Hop] {
        self.routes().class(class, 0)
    }

    /// Route from the host to a device class.
    pub fn host_to_class_route(&self, class: usize) -> &[Hop] {
        self.routes().class(class, 1)
    }

    /// Route from a device class directly to the GPU (GPUDirect Storage /
    /// P2P).
    pub fn class_to_gpu_route(&self, class: usize) -> &[Hop] {
        self.routes().class(class, 2)
    }

    /// Route from the host to the GPU.
    pub fn host_to_gpu_route(&self) -> &[Hop] {
        self.routes().get(0)
    }

    /// Route from the GPU to a device class (e.g. scattering fresh
    /// Q/K/V).
    pub fn gpu_to_class_route(&self, class: usize) -> &[Hop] {
        self.routes().class(class, 3)
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
        let route = sys.class_to_host_route(0);
        assert_eq!(route.len(), 3);
    }

    #[test]
    fn builds_conventional_array() {
        let spec = SystemSpec::a100_pm9a3(4);
        let sys = BuiltSystem::build(&spec, None, 128).unwrap();
        assert_eq!(sys.devices.len(), 4);
        assert!(sys.devices.iter().all(|d| d.accel.is_none()));
        // Dedicated root port: single-hop route.
        assert_eq!(sys.class_to_host_route(0).len(), 1);
    }

    fn class_list(sys: &BuiltSystem) -> Vec<(usize, usize)> {
        sys.classes().iter().map(|c| (c.first, c.count)).collect()
    }

    #[test]
    fn a_homogeneous_array_is_one_class() {
        for spec in
            [SystemSpec::a100_smartssd(16), SystemSpec::a100_pm9a3(4), SystemSpec::a100_isp(8)]
        {
            let sys = BuiltSystem::build(&spec, None, 128).unwrap();
            assert_eq!(class_list(&sys), vec![(0, sys.devices.len())], "{}", spec.name);
        }
        // Behind the chassis, the last of an odd count has a port of its own.
        let odd = BuiltSystem::build(&SystemSpec::a100_smartssd(5), None, 128).unwrap();
        assert_eq!(class_list(&odd), vec![(0, 4), (4, 1)]);
        let one = BuiltSystem::build(&SystemSpec::a100_smartssd(1), None, 128).unwrap();
        assert_eq!(class_list(&one), vec![(0, 1)]);
    }

    #[test]
    fn a_straggler_and_its_port_mate_are_classes_of_their_own() {
        let spec = SystemSpec::a100_smartssd(8);
        let sys = BuiltSystem::build_with_degradations(&spec, None, 128, &[(5, 0.5)]).unwrap();
        assert_eq!(class_list(&sys), vec![(0, 4), (4, 1), (5, 1), (6, 2)]);
        // Without ports, a straggler splits the run but has no port-mate.
        let isp = SystemSpec::a100_isp(4);
        let sys = BuiltSystem::build_with_degradations(&isp, None, 128, &[(1, 0.5)]).unwrap();
        assert_eq!(class_list(&sys), vec![(0, 1), (1, 1), (2, 2)]);
    }

    #[test]
    fn class_routes_carry_one_copy_per_device_on_each_shared_link() {
        let spec = SystemSpec::a100_smartssd(8);
        let sys = BuiltSystem::build_with_degradations(&spec, None, 128, &[(5, 0.5)]).unwrap();
        let copies = |route: &[Hop]| route.iter().map(|h| h.copies).collect::<Vec<_>>();
        // Device link, port (both devices in the class), chassis uplink,
        // GPU link.
        assert_eq!(copies(sys.class_to_gpu_route(0)), vec![1, 2, 4, 4]);
        assert_eq!(copies(sys.gpu_to_class_route(0)), vec![4, 4, 2, 1]);
        // The straggler's port-mate shares its port with another class.
        assert_eq!(copies(sys.class_to_host_route(1)), vec![1, 1, 1]);
        assert_eq!(copies(sys.host_to_class_route(3)), vec![2, 2, 1]);
        // Each class's first device's own links stand for the class.
        for (c, class) in sys.classes().iter().enumerate() {
            let own = sys.topo.uplink_resource(sys.devices[class.first].node).unwrap();
            assert_eq!(sys.class_to_host_route(c)[0], Hop::new(own, 1));
        }
        assert_eq!(copies(sys.host_to_gpu_route()), vec![1]);
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
    fn degradation_factors_must_be_finite_and_positive() {
        let spec = SystemSpec::a100_smartssd(4);
        for factor in [0.0, -1.0, f64::INFINITY] {
            let expect = SystemError::InvalidDegradation { index: 3, factor };
            assert_eq!(spec.device_specs(&[(1, 0.5), (3, factor)]).unwrap_err(), expect);
            assert_eq!(
                BuiltSystem::build_with_degradations(&spec, None, 128, &[(3, factor)]).unwrap_err(),
                expect
            );
        }
        let nan = spec.kv_ledger(&[(0, f64::NAN)]).unwrap_err();
        assert!(
            matches!(nan, SystemError::InvalidDegradation { index: 0, factor } if factor.is_nan())
        );
    }

    #[test]
    fn kv_ledger_skews_away_from_degraded_devices() {
        let spec = SystemSpec::a100_smartssd(4);
        let mut ledger = spec.kv_ledger(&[(1, 0.25)]).unwrap();
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
        let sys = SystemSpec::a100_smartssd(16);
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
        let route = sys.class_to_gpu_route(0);
        // device -> port -> chassis -> (root) -> gpu: 4 directed links.
        assert_eq!(route.len(), 4);
        assert!(route.iter().all(|h| h.resource != sys.host_dram));
    }

    #[test]
    fn isp_matches_four_smartssds_in_bandwidth() {
        // §7.1: one ISP-CSD ≈ four SmartSSDs in internal bandwidth.
        let isp = SystemSpec::a100_isp(1);
        let four = SystemSpec::a100_smartssd(4);
        let r_isp = isp.aggregate_internal_read_bw();
        let r_four = four.aggregate_internal_read_bw();
        assert!((r_isp / r_four - 1.25).abs() < 0.3, "isp={r_isp} four={r_four}");
    }
}
