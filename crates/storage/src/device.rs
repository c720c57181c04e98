//! Runtime SSD devices: I/O accounting and simulation adapters.

use crate::spec::SsdSpec;
use hilos_sim::{ResourceId, ResourceKind, ResourceSpec, TaskGraph, TaskId};
use std::fmt;

/// How a write stream hits the flash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePattern {
    /// Buffered into page-aligned chunks before programming (WAF ≈ 1).
    PageAligned,
    /// Issued in fixed `chunk`-byte units; sub-page chunks each program a
    /// whole page (read-modify-write) — the §4.3 pathology.
    Chunked {
        /// Write unit in bytes.
        chunk: u64,
    },
}

/// Cumulative I/O counters for one device.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IoCounters {
    /// Bytes the host (or the NSP accelerator) read from the device.
    pub bytes_read: u64,
    /// Bytes of payload written to the device.
    pub bytes_written: u64,
    /// Bytes actually programmed into NAND (≥ `bytes_written`).
    pub nand_bytes_programmed: u64,
    /// Number of read commands issued.
    pub read_ops: u64,
    /// Number of write commands issued.
    pub write_ops: u64,
}

impl IoCounters {
    /// Observed write amplification factor (NAND bytes / host bytes), or
    /// 1.0 if nothing was written yet.
    pub fn write_amplification(&self) -> f64 {
        if self.bytes_written == 0 {
            1.0
        } else {
            self.nand_bytes_programmed as f64 / self.bytes_written as f64
        }
    }
}

/// A stateful SSD: a spec plus I/O counters and an occupancy figure.
///
/// # Examples
///
/// ```
/// use hilos_storage::{SsdDevice, SsdSpec, WritePattern};
///
/// let mut ssd = SsdDevice::new(SsdSpec::smartssd_nvme());
/// ssd.record_write(256, WritePattern::Chunked { chunk: 256 });
/// assert_eq!(ssd.counters().nand_bytes_programmed, 4096);
/// assert_eq!(ssd.counters().write_amplification(), 16.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SsdDevice {
    spec: SsdSpec,
    counters: IoCounters,
    occupied_bytes: u64,
}

impl SsdDevice {
    /// Creates an empty device from a spec.
    pub fn new(spec: SsdSpec) -> Self {
        SsdDevice { spec, counters: IoCounters::default(), occupied_bytes: 0 }
    }

    /// The device's static description.
    pub fn spec(&self) -> &SsdSpec {
        &self.spec
    }

    /// Cumulative I/O counters.
    pub fn counters(&self) -> IoCounters {
        self.counters
    }

    /// Bytes currently allocated on the device.
    pub fn occupied_bytes(&self) -> u64 {
        self.occupied_bytes
    }

    /// Free capacity in bytes.
    pub fn free_bytes(&self) -> u64 {
        self.spec.capacity_bytes().saturating_sub(self.occupied_bytes)
    }

    /// Marks `bytes` as allocated (KV-cache placement). Saturates at
    /// capacity; callers should check [`SsdDevice::free_bytes`] first.
    pub fn allocate(&mut self, bytes: u64) {
        self.occupied_bytes = (self.occupied_bytes + bytes).min(self.spec.capacity_bytes());
    }

    /// Releases `bytes` of allocation.
    pub fn release(&mut self, bytes: u64) {
        self.occupied_bytes = self.occupied_bytes.saturating_sub(bytes);
    }

    /// Records a read of `bytes`.
    pub fn record_read(&mut self, bytes: u64) {
        self.counters.bytes_read += bytes;
        self.counters.read_ops += 1;
    }

    /// Records a write of `bytes` under the given pattern, accounting NAND
    /// programs with the appropriate amplification.
    pub fn record_write(&mut self, bytes: u64, pattern: WritePattern) {
        self.counters.bytes_written += bytes;
        self.counters.write_ops += 1;
        let programmed = match pattern {
            WritePattern::PageAligned => self.spec.pages_for(bytes) * self.spec.page_bytes(),
            WritePattern::Chunked { chunk } => {
                assert!(chunk > 0, "chunk must be positive");
                let chunks = bytes.div_ceil(chunk);
                chunks * self.spec.pages_for(chunk) * self.spec.page_bytes()
            }
        };
        self.counters.nand_bytes_programmed += programmed;
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
        d.record_write(4096, WritePattern::PageAligned);
        let c = d.counters();
        assert_eq!(c.bytes_read, 1500);
        assert_eq!(c.read_ops, 2);
        assert_eq!(c.bytes_written, 4096);
        assert_eq!(c.nand_bytes_programmed, 4096);
        assert_eq!(c.write_amplification(), 1.0);
    }

    #[test]
    fn chunked_writes_amplify() {
        let mut d = SsdDevice::new(SsdSpec::smartssd_nvme());
        // 16 KV entries of 256 B written one by one: 16 pages programmed.
        d.record_write(16 * 256, WritePattern::Chunked { chunk: 256 });
        assert_eq!(d.counters().nand_bytes_programmed, 16 * 4096);
        assert_eq!(d.counters().write_amplification(), 16.0);

        // The same payload buffered page-aligned: one page.
        let mut d2 = SsdDevice::new(SsdSpec::smartssd_nvme());
        d2.record_write(16 * 256, WritePattern::PageAligned);
        assert_eq!(d2.counters().nand_bytes_programmed, 4096);
    }

    #[test]
    fn capacity_tracking() {
        let mut d = SsdDevice::new(SsdSpec::pm9a3());
        let cap = d.spec().capacity_bytes();
        d.allocate(1_000_000);
        assert_eq!(d.occupied_bytes(), 1_000_000);
        assert_eq!(d.free_bytes(), cap - 1_000_000);
        d.release(400_000);
        assert_eq!(d.occupied_bytes(), 600_000);
        d.allocate(u64::MAX / 2);
        assert_eq!(d.occupied_bytes(), cap);
    }

    #[test]
    fn endurance_fraction() {
        let mut d = SsdDevice::new(SsdSpec::smartssd_nvme());
        // Program 7.008e15 / 2 bytes -> 50% used.
        d.record_write(3_504_000_000_000_000, WritePattern::PageAligned);
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
