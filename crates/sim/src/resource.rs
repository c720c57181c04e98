//! Simulated resources.
//!
//! A resource is anything with a finite service capacity measured in
//! *units per second*: a PCIe link (bytes/s), a DRAM port (bytes/s), an SSD
//! read channel (bytes/s) or a compute engine (FLOP/s). Jobs traverse one
//! or more resources simultaneously and share each resource's capacity by
//! max-min fairness (see [`crate::FlowEngine`]).

use std::fmt;

/// Identifier of a resource registered with a [`crate::FlowEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub(crate) u32);

impl ResourceId {
    /// Raw index of the resource inside its engine.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One entry of a job's route: a resource and how many identical flows
/// the job stands for on it.
///
/// A job whose hops all have one copy is an ordinary flow. A job that
/// stands for k identical per-device flows crosses each device's own
/// resources once (its first device's resources stand for all k) and
/// every resource the k flows share with `copies` k: it adds k to that
/// resource's load and takes k times its rate from it (see
/// [`crate::FlowEngine`]).
///
/// # Examples
///
/// ```
/// use hilos_sim::{FlowEngine, Hop, ResourceKind, ResourceSpec};
///
/// let mut eng = FlowEngine::new();
/// let link = eng.add_resource(ResourceSpec::new("uplink", ResourceKind::Link, 3e9));
/// // Three identical flows as one job, beside a fourth flow.
/// let three = eng.submit(&[Hop::new(link, 3)], 1e9, None).unwrap();
/// let one = eng.submit(&[link], 1e9, None).unwrap();
/// assert_eq!(eng.job_rate(three), Some(0.75e9));
/// assert_eq!(eng.job_rate(one), Some(0.75e9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hop {
    /// The resource crossed.
    pub resource: ResourceId,
    /// Identical flows the job stands for on this resource (at least 1).
    pub copies: u32,
}

impl Hop {
    /// A hop of `copies` identical flows across `resource`.
    pub const fn new(resource: ResourceId, copies: u32) -> Self {
        Hop { resource, copies }
    }
}

impl From<ResourceId> for Hop {
    fn from(resource: ResourceId) -> Self {
        Hop::new(resource, 1)
    }
}

impl From<&ResourceId> for Hop {
    fn from(resource: &ResourceId) -> Self {
        Hop::new(*resource, 1)
    }
}

impl From<&Hop> for Hop {
    fn from(hop: &Hop) -> Self {
        *hop
    }
}

/// Broad classification of a resource, used for reporting and energy
/// attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// An interconnect link (PCIe segment, NVLink, InfiniBand...).
    Link,
    /// A memory port (host DRAM, GPU HBM, FPGA DDR).
    Memory,
    /// A compute engine (GPU SMs, CPU cores, FPGA MACs).
    Compute,
    /// A storage read channel.
    StorageRead,
    /// A storage write channel.
    StorageWrite,
    /// Anything else.
    Other,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ResourceKind::Link => "link",
            ResourceKind::Memory => "memory",
            ResourceKind::Compute => "compute",
            ResourceKind::StorageRead => "storage-read",
            ResourceKind::StorageWrite => "storage-write",
            ResourceKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// Static description of a resource. The name is a static string saying
/// what the resource is (`"ssd:read"`, `"pcie:up"`); which device or link
/// it belongs to is its [`ResourceId`], so registering one formats
/// nothing.
///
/// # Examples
///
/// ```
/// use hilos_sim::{ResourceKind, ResourceSpec};
///
/// let link = ResourceSpec::new("pcie4x16", ResourceKind::Link, 31.5e9);
/// assert_eq!(link.capacity(), 31.5e9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceSpec {
    name: &'static str,
    kind: ResourceKind,
    capacity: f64,
}

impl ResourceSpec {
    /// Creates a new resource description.
    ///
    /// `capacity` is in units per second (bytes/s for links and memory,
    /// FLOP/s for compute).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not finite and strictly positive — a
    /// zero-capacity resource would stall every job routed through it.
    pub fn new(name: &'static str, kind: ResourceKind, capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "resource capacity must be finite and positive, got {capacity}"
        );
        ResourceSpec { name, kind, capacity }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Classification of this resource.
    pub fn kind(&self) -> ResourceKind {
        self.kind
    }

    /// Service capacity in units per second.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }
}

/// Cumulative accounting for one resource.
///
/// The engine integrates, over simulated time, the total rate allocated to
/// jobs crossing the resource. From that it derives utilization and total
/// units served — the inputs of the utilization (Fig. 4c, 11b) and energy
/// (Fig. 17a) analyses.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceStats {
    /// Total units served (∫ allocated-rate dt).
    pub units_served: f64,
    /// Busy time in seconds, weighted by fractional usage
    /// (∫ allocated-rate / capacity dt).
    pub busy_seconds: f64,
    /// Wall-clock seconds over which the stats were accumulated.
    pub observed_seconds: f64,
}

impl ResourceStats {
    /// Average utilization over the observation window, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.observed_seconds <= 0.0 {
            0.0
        } else {
            (self.busy_seconds / self.observed_seconds).clamp(0.0, 1.0)
        }
    }

    /// Difference between two snapshots (`self` taken after `earlier`).
    pub fn since(&self, earlier: &ResourceStats) -> ResourceStats {
        ResourceStats {
            units_served: self.units_served - earlier.units_served,
            busy_seconds: self.busy_seconds - earlier.busy_seconds,
            observed_seconds: self.observed_seconds - earlier.observed_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_accessors() {
        let r = ResourceSpec::new("hbm", ResourceKind::Memory, 1.555e12);
        assert_eq!(r.name(), "hbm");
        assert_eq!(r.kind(), ResourceKind::Memory);
        assert_eq!(r.capacity(), 1.555e12);
    }

    #[test]
    #[should_panic(expected = "capacity must be finite and positive")]
    fn zero_capacity_rejected() {
        let _ = ResourceSpec::new("bad", ResourceKind::Link, 0.0);
    }

    #[test]
    fn stats_utilization() {
        let s = ResourceStats { units_served: 100.0, busy_seconds: 0.5, observed_seconds: 2.0 };
        assert!((s.utilization() - 0.25).abs() < 1e-12);
        let zero = ResourceStats::default();
        assert_eq!(zero.utilization(), 0.0);
    }

    #[test]
    fn stats_since() {
        let a = ResourceStats { units_served: 10.0, busy_seconds: 1.0, observed_seconds: 2.0 };
        let b = ResourceStats { units_served: 25.0, busy_seconds: 1.5, observed_seconds: 4.0 };
        let d = b.since(&a);
        assert_eq!(d.units_served, 15.0);
        assert_eq!(d.busy_seconds, 0.5);
        assert_eq!(d.observed_seconds, 2.0);
    }

    #[test]
    fn display_impls() {
        assert_eq!(format!("{}", ResourceId(3)), "r3");
        assert_eq!(format!("{}", ResourceKind::StorageRead), "storage-read");
    }
}
