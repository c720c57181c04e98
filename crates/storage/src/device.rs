//! Runtime SSD devices: a spec's channels as simulation resources.

use crate::spec::SsdSpec;
use hilos_sim::{Hop, Label, ResourceId, ResourceKind, ResourceSpec, TaskGraph, TaskId};
use std::iter::once;

/// A device materialized inside a [`hilos_sim::FlowEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdInstance {
    read: ResourceId,
    write: ResourceId,
    cmd_latency: hilos_sim::SimTime,
}

impl SsdInstance {
    /// Registers `spec`'s read and write channels as `engine` resources
    /// (`"ssd:read"` and `"ssd:write"`).
    pub fn new(spec: &SsdSpec, engine: &mut hilos_sim::FlowEngine) -> Self {
        let read = engine.add_resource(ResourceSpec::new(
            "ssd:read",
            ResourceKind::StorageRead,
            spec.seq_read_bw(),
        ));
        let write = engine.add_resource(ResourceSpec::new(
            "ssd:write",
            ResourceKind::StorageWrite,
            spec.seq_write_bw(),
        ));
        SsdInstance { read, write, cmd_latency: spec.cmd_latency() }
    }

    /// The read-channel resource.
    pub fn read_resource(&self) -> ResourceId {
        self.read
    }

    /// Appends a read of `bytes` to `graph`: a command-latency delay
    /// (labelled `label` with the tail `".cmd"`) followed by a transfer
    /// across the read channel and `route_tail` (e.g. PCIe links towards
    /// the consumer). Returns the transfer task.
    pub fn read_task(
        &self,
        graph: &mut TaskGraph,
        label: impl Into<Label>,
        bytes: f64,
        route_tail: impl IntoIterator<Item = impl Into<Hop>>,
        deps: &[TaskId],
    ) -> TaskId {
        let label = label.into();
        let cmd = graph.delay(label.tail(".cmd"), self.cmd_latency, deps);
        let route = once(Hop::from(self.read)).chain(route_tail.into_iter().map(Into::into));
        graph.transfer(label, bytes, route, &[cmd])
    }

    /// Appends a write of `bytes`: command latency (labelled as in
    /// [`SsdInstance::read_task`]), then a transfer across `route_head`
    /// (links from the producer) and the write channel.
    pub fn write_task(
        &self,
        graph: &mut TaskGraph,
        label: impl Into<Label>,
        bytes: f64,
        route_head: impl IntoIterator<Item = impl Into<Hop>>,
        deps: &[TaskId],
    ) -> TaskId {
        let label = label.into();
        let cmd = graph.delay(label.tail(".cmd"), self.cmd_latency, deps);
        let route = route_head.into_iter().map(Into::into).chain(once(Hop::from(self.write)));
        graph.transfer(label, bytes, route, &[cmd])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilos_sim::{execute, FlowEngine, SimTime};

    /// An empty route head or tail: the transfer crosses only the channel.
    const NO_HOPS: [ResourceId; 0] = [];

    #[test]
    fn read_task_includes_cmd_latency_and_bandwidth() {
        let mut eng = FlowEngine::new();
        let inst = SsdInstance::new(&SsdSpec::smartssd_nvme(), &mut eng);
        let mut g = TaskGraph::new();
        let read = inst.read_task(&mut g, "loadkv:test", 3.2e9, NO_HOPS, &[]);
        let cmd = g.task(read).deps()[0];
        assert_eq!(g.task(cmd).label().to_string(), "loadkv:test.cmd");
        let tl = execute(&mut eng, &g).unwrap();
        // 25 us command latency + 1 s transfer at 3.2 GB/s.
        let expect = SimTime::from_micros(25) + SimTime::from_secs(1);
        assert_eq!(tl.makespan(), expect);
    }

    #[test]
    fn write_task_uses_write_channel() {
        let mut eng = FlowEngine::new();
        let inst = SsdInstance::new(&SsdSpec::smartssd_nvme(), &mut eng);
        let mut g = TaskGraph::new();
        inst.write_task(&mut g, "spill:test", 2.0e9, NO_HOPS, &[]);
        let tl = execute(&mut eng, &g).unwrap();
        let expect = SimTime::from_micros(25) + SimTime::from_secs(1);
        assert_eq!(tl.makespan(), expect);
        // Reads were untouched.
        assert_eq!(tl.resource_stats(inst.read_resource()).units_served, 0.0);
    }

    #[test]
    fn reads_and_writes_do_not_contend() {
        let mut eng = FlowEngine::new();
        let inst = SsdInstance::new(&SsdSpec::pm9a3(), &mut eng);
        let mut g = TaskGraph::new();
        inst.read_task(&mut g, "r", 6.9e9, NO_HOPS, &[]);
        inst.write_task(&mut g, "w", 4.1e9, NO_HOPS, &[]);
        let tl = execute(&mut eng, &g).unwrap();
        // Both take 1 s + 20 us, in parallel.
        assert_eq!(tl.makespan(), SimTime::from_micros(20) + SimTime::from_secs(1));
    }
}
