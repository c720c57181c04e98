//! Runtime SSD devices: I/O accounting and simulation adapters.

use crate::spec::SsdSpec;
use hilos_sim::{ResourceId, ResourceKind, ResourceSpec, TaskGraph, TaskId};
use std::fmt;

/// Cumulative I/O counters for one device.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IoCounters {
    /// Bytes the host (or the NSP accelerator) read from the device.
    pub bytes_read: u64,
    /// Bytes of payload written to the device.
    pub bytes_written: u64,
    /// Bytes actually programmed into NAND (≥ `bytes_written`).
    pub nand_bytes_programmed: u64,
}

/// A stateful SSD: a spec plus cumulative I/O counters, which the
/// endurance figure reads. KV placement lives in
/// [`KvShardLedger`](crate::KvShardLedger), not here.
///
/// # Examples
///
/// ```
/// use hilos_storage::{SsdDevice, SsdSpec};
///
/// let mut ssd = SsdDevice::new(SsdSpec::smartssd_nvme());
/// ssd.record_write(256);
/// assert_eq!(ssd.counters().nand_bytes_programmed, 4096);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SsdDevice {
    spec: SsdSpec,
    counters: IoCounters,
}

impl SsdDevice {
    /// Creates a device with zeroed counters from a spec.
    pub fn new(spec: SsdSpec) -> Self {
        SsdDevice { spec, counters: IoCounters::default() }
    }

    /// The device's static description.
    pub fn spec(&self) -> &SsdSpec {
        &self.spec
    }

    /// Cumulative I/O counters.
    pub fn counters(&self) -> IoCounters {
        self.counters
    }

    /// Records a read of `bytes`.
    pub fn record_read(&mut self, bytes: u64) {
        self.counters.bytes_read += bytes;
    }

    /// Records a buffered write of `bytes`, which programs whole NAND
    /// pages: a partial last page costs a full one.
    pub fn record_write(&mut self, bytes: u64) {
        self.counters.bytes_written += bytes;
        self.counters.nand_bytes_programmed += self.spec.pages_for(bytes) * self.spec.page_bytes();
    }

    /// Fraction of the endurance budget consumed, in `[0, 1]`.
    pub fn endurance_used(&self) -> f64 {
        (self.counters.nand_bytes_programmed as f64 / self.spec.endurance_bytes()).min(1.0)
    }

    /// Registers the device's read and write channels as engine resources.
    pub fn instantiate(&self, engine: &mut hilos_sim::FlowEngine) -> SsdInstance {
        let read = engine.add_resource(ResourceSpec::new(
            format!("{}:read", self.spec.name()),
            ResourceKind::StorageRead,
            self.spec.seq_read_bw(),
        ));
        let write = engine.add_resource(ResourceSpec::new(
            format!("{}:write", self.spec.name()),
            ResourceKind::StorageWrite,
            self.spec.seq_write_bw(),
        ));
        SsdInstance { read, write, cmd_latency: self.spec.cmd_latency() }
    }
}

/// A device materialized inside a [`hilos_sim::FlowEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdInstance {
    read: ResourceId,
    write: ResourceId,
    cmd_latency: hilos_sim::SimTime,
}

impl SsdInstance {
    /// The read-channel resource.
    pub fn read_resource(&self) -> ResourceId {
        self.read
    }

    /// Appends a read of `bytes` to `graph`: a command-latency delay
    /// followed by a transfer across the read channel and `route_tail`
    /// (e.g. PCIe links towards the consumer). Returns the transfer task.
    pub fn read_task(
        &self,
        graph: &mut TaskGraph,
        label: impl fmt::Display + Copy,
        bytes: f64,
        route_tail: &[ResourceId],
        deps: &[TaskId],
    ) -> TaskId {
        let cmd = graph.delay(format_args!("{label}.cmd"), self.cmd_latency, deps);
        let route = std::iter::once(self.read).chain(route_tail.iter().copied());
        graph.transfer(label, bytes, route, &[cmd])
    }

    /// Appends a write of `bytes`: command latency, then a transfer across
    /// `route_head` (links from the producer) and the write channel.
    pub fn write_task(
        &self,
        graph: &mut TaskGraph,
        label: impl fmt::Display + Copy,
        bytes: f64,
        route_head: &[ResourceId],
        deps: &[TaskId],
    ) -> TaskId {
        let cmd = graph.delay(format_args!("{label}.cmd"), self.cmd_latency, deps);
        let route = route_head.iter().copied().chain(std::iter::once(self.write));
        graph.transfer(label, bytes, route, &[cmd])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilos_sim::{execute, FlowEngine, SimTime};

    #[test]
    fn counters_accumulate() {
        let mut d = SsdDevice::new(SsdSpec::pm9a3());
        d.record_read(1000);
        d.record_read(500);
        d.record_write(4096);
        let c = d.counters();
        assert_eq!(c.bytes_read, 1500);
        assert_eq!(c.bytes_written, 4096);
        assert_eq!(c.nand_bytes_programmed, 4096);
        // A sub-page write programs one whole page.
        d.record_write(256);
        let c = d.counters();
        assert_eq!(c.bytes_written, 4096 + 256);
        assert_eq!(c.nand_bytes_programmed, 2 * 4096);
    }

    #[test]
    fn endurance_fraction() {
        let mut d = SsdDevice::new(SsdSpec::smartssd_nvme());
        // Program 7.008e15 / 2 bytes -> 50% used.
        d.record_write(3_504_000_000_000_000);
        assert!((d.endurance_used() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn read_task_includes_cmd_latency_and_bandwidth() {
        let dev = SsdDevice::new(SsdSpec::smartssd_nvme());
        let mut eng = FlowEngine::new();
        let inst = dev.instantiate(&mut eng);
        let mut g = TaskGraph::new();
        inst.read_task(&mut g, "loadkv:test", 3.2e9, &[], &[]);
        let tl = execute(&mut eng, &g).unwrap();
        // 25 us command latency + 1 s transfer at 3.2 GB/s.
        let expect = SimTime::from_micros(25) + SimTime::from_secs(1);
        assert_eq!(tl.makespan(), expect);
    }

    #[test]
    fn write_task_uses_write_channel() {
        let dev = SsdDevice::new(SsdSpec::smartssd_nvme());
        let mut eng = FlowEngine::new();
        let inst = dev.instantiate(&mut eng);
        let mut g = TaskGraph::new();
        inst.write_task(&mut g, "spill:test", 2.0e9, &[], &[]);
        let tl = execute(&mut eng, &g).unwrap();
        let expect = SimTime::from_micros(25) + SimTime::from_secs(1);
        assert_eq!(tl.makespan(), expect);
        // Reads were untouched.
        assert_eq!(tl.resource_stats(inst.read_resource()).units_served, 0.0);
    }

    #[test]
    fn reads_and_writes_do_not_contend() {
        let dev = SsdDevice::new(SsdSpec::pm9a3());
        let mut eng = FlowEngine::new();
        let inst = dev.instantiate(&mut eng);
        let mut g = TaskGraph::new();
        inst.read_task(&mut g, "r", 6.9e9, &[], &[]);
        inst.write_task(&mut g, "w", 4.1e9, &[], &[]);
        let tl = execute(&mut eng, &g).unwrap();
        // Both take 1 s + 20 us, in parallel.
        assert_eq!(tl.makespan(), SimTime::from_micros(20) + SimTime::from_secs(1));
    }
}
