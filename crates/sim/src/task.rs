//! Task graphs: dependency-ordered work submitted to the flow engine.
//!
//! A [`TaskGraph`] is a DAG of [`Task`]s. Each task is a transfer (bytes
//! over a route of links), a compute (FLOPs on one engine), a fixed delay
//! (command latency, kernel launch) or a zero-cost milestone used as a
//! synchronization point. Tasks carry a free-form label whose *prefix up to
//! the first `':'`* is treated as a category for breakdown reporting
//! (e.g. `"loadw:layer3"` → category `loadw`).
//!
//! Tasks marked **background** (e.g. the delayed KV-cache spills of §4.3 of
//! the paper) contend for resources like any other task but are excluded
//! from the foreground makespan.

use crate::resource::ResourceId;
use crate::time::SimTime;
use std::borrow::Borrow;
use std::fmt::{self, Write as _};

/// Identifier of a task inside one [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) u32);

impl TaskId {
    /// Index of the task inside its graph.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The work a task performs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskKind<'g> {
    /// Move `bytes` across every resource in `route` simultaneously.
    Transfer {
        /// Payload size in bytes.
        bytes: f64,
        /// Resources crossed (links, memory ports, storage channels).
        route: &'g [ResourceId],
        /// Optional per-task rate cap in bytes/s.
        rate_cap: Option<f64>,
    },
    /// Execute `ops` units of work on a single compute resource.
    Compute {
        /// Work amount (FLOPs or device-specific ops).
        ops: f64,
        /// The compute resource.
        resource: ResourceId,
    },
    /// Wait for a fixed duration (latency not tied to bandwidth).
    Delay {
        /// How long to wait.
        duration: SimTime,
    },
    /// Zero-cost synchronization point.
    Milestone,
}

/// A task's work, with its route stored in the graph's route arena.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Work {
    Transfer { bytes: f64, route: Span, rate_cap: Option<f64> },
    Compute { ops: f64, resource: ResourceId },
    Delay { duration: SimTime },
    Milestone,
}

/// A `start..end` range into one of the graph's arenas.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Span(u32, u32);

impl Span {
    fn of<T>(self, arena: &[T]) -> &[T] {
        &arena[self.0 as usize..self.1 as usize]
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Node {
    label: Span,
    work: Work,
    deps: Span,
    background: bool,
}

/// One node of a [`TaskGraph`], borrowed from it.
#[derive(Clone, Copy)]
pub struct Task<'g> {
    graph: &'g TaskGraph,
    node: &'g Node,
}

impl<'g> Task<'g> {
    /// The task's label.
    pub fn label(&self) -> &'g str {
        let Span(start, end) = self.node.label;
        &self.graph.labels[start as usize..end as usize]
    }

    /// The label's category: the prefix up to the first `':'`, or the whole
    /// label if it contains none.
    pub fn category(&self) -> &'g str {
        let label = self.label();
        match label.split_once(':') {
            Some((head, _)) => head,
            None => label,
        }
    }

    /// The work this task performs.
    pub fn kind(&self) -> TaskKind<'g> {
        match self.node.work {
            Work::Transfer { bytes, route, rate_cap } => {
                TaskKind::Transfer { bytes, route: route.of(&self.graph.routes), rate_cap }
            }
            Work::Compute { ops, resource } => TaskKind::Compute { ops, resource },
            Work::Delay { duration } => TaskKind::Delay { duration },
            Work::Milestone => TaskKind::Milestone,
        }
    }

    /// Tasks that must complete before this one starts.
    pub fn deps(&self) -> &'g [TaskId] {
        self.node.deps.of(&self.graph.deps)
    }

    /// Whether the task is excluded from the foreground makespan.
    pub fn is_background(&self) -> bool {
        self.node.background
    }
}

impl fmt::Debug for Task<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Task")
            .field("label", &self.label())
            .field("kind", &self.kind())
            .field("deps", &self.deps())
            .field("background", &self.is_background())
            .finish()
    }
}

/// A DAG of tasks to execute on a [`crate::FlowEngine`].
///
/// Labels, dependency lists and routes of all tasks live in three shared
/// arenas that grow with the graph, so adding a task allocates nothing of
/// its own, and a label is formatted straight into place.
///
/// # Examples
///
/// ```
/// use hilos_sim::{FlowEngine, ResourceKind, ResourceSpec, TaskGraph};
///
/// let mut eng = FlowEngine::new();
/// let link = eng.add_resource(ResourceSpec::new("link", ResourceKind::Link, 1e9));
/// let gpu = eng.add_resource(ResourceSpec::new("gpu", ResourceKind::Compute, 1e12));
///
/// let mut g = TaskGraph::new();
/// let load = g.transfer("loadw:l0", 1e9, [link], &[]);
/// let mm = g.compute(format_args!("gemm:l{}", 0), 2e12, gpu, &[load]);
/// assert_eq!(g.len(), 2);
/// assert_eq!(g.task(mm).deps(), &[load]);
/// assert_eq!(g.task(mm).label(), "gemm:l0");
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskGraph {
    nodes: Vec<Node>,
    labels: String,
    deps: Vec<TaskId>,
    routes: Vec<ResourceId>,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Number of tasks in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns the task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this graph.
    pub fn task(&self, id: TaskId) -> Task<'_> {
        Task { graph: self, node: &self.nodes[id.index()] }
    }

    /// Iterates over `(TaskId, Task)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, Task<'_>)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (TaskId(i as u32), Task { graph: self, node }))
    }

    fn push(&mut self, label: impl fmt::Display, work: Work, deps: &[TaskId]) -> TaskId {
        let id = TaskId(self.nodes.len() as u32);
        let label_start = self.labels.len() as u32;
        write!(self.labels, "{label}").expect("formatting into a String cannot fail");
        let deps_start = self.deps.len() as u32;
        self.deps.extend_from_slice(deps);
        self.nodes.push(Node {
            label: Span(label_start, self.labels.len() as u32),
            work,
            deps: Span(deps_start, self.deps.len() as u32),
            background: false,
        });
        id
    }

    fn push_route(&mut self, route: impl IntoIterator<Item = impl Borrow<ResourceId>>) -> Span {
        let start = self.routes.len() as u32;
        self.routes.extend(route.into_iter().map(|r| *r.borrow()));
        Span(start, self.routes.len() as u32)
    }

    /// Adds a transfer task.
    pub fn transfer(
        &mut self,
        label: impl fmt::Display,
        bytes: f64,
        route: impl IntoIterator<Item = impl Borrow<ResourceId>>,
        deps: &[TaskId],
    ) -> TaskId {
        let route = self.push_route(route);
        self.push(label, Work::Transfer { bytes, route, rate_cap: None }, deps)
    }

    /// Adds a transfer task with a per-task rate cap in bytes/s.
    pub fn transfer_capped(
        &mut self,
        label: impl fmt::Display,
        bytes: f64,
        route: impl IntoIterator<Item = impl Borrow<ResourceId>>,
        rate_cap: f64,
        deps: &[TaskId],
    ) -> TaskId {
        let route = self.push_route(route);
        self.push(label, Work::Transfer { bytes, route, rate_cap: Some(rate_cap) }, deps)
    }

    /// Adds a compute task.
    pub fn compute(
        &mut self,
        label: impl fmt::Display,
        ops: f64,
        resource: ResourceId,
        deps: &[TaskId],
    ) -> TaskId {
        self.push(label, Work::Compute { ops, resource }, deps)
    }

    /// Adds a fixed-latency task.
    pub fn delay(
        &mut self,
        label: impl fmt::Display,
        duration: SimTime,
        deps: &[TaskId],
    ) -> TaskId {
        self.push(label, Work::Delay { duration }, deps)
    }

    /// Adds a zero-cost synchronization milestone.
    pub fn milestone(&mut self, label: impl fmt::Display, deps: &[TaskId]) -> TaskId {
        self.push(label, Work::Milestone, deps)
    }

    /// Marks a task as background: it still contends for resources but does
    /// not extend the foreground makespan.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_background(&mut self, id: TaskId) {
        self.nodes[id.index()].background = true;
    }

    /// Adds extra dependencies to an existing task.
    ///
    /// # Panics
    ///
    /// Panics if `id` or any dependency is out of range.
    pub fn add_deps(&mut self, id: TaskId, deps: &[TaskId]) {
        for d in deps {
            assert!(d.index() < self.nodes.len(), "dependency {d} out of range");
        }
        // Move the task's list to the arena's end (unless it is already
        // there) so it can grow in place.
        let Span(start, end) = self.nodes[id.index()].deps;
        let start = if end as usize == self.deps.len() {
            start
        } else {
            let moved = self.deps.len() as u32;
            self.deps.extend_from_within(start as usize..end as usize);
            moved
        };
        self.deps.extend_from_slice(deps);
        self.nodes[id.index()].deps = Span(start, self.deps.len() as u32);
    }

    /// Total bytes across all transfer tasks (useful for traffic analyses).
    pub fn total_transfer_bytes(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| match n.work {
                Work::Transfer { bytes, .. } => bytes,
                _ => 0.0,
            })
            .sum()
    }

    /// Bytes transferred across tasks whose route includes `resource`.
    pub fn transfer_bytes_through(&self, resource: ResourceId) -> f64 {
        self.nodes
            .iter()
            .map(|n| match n.work {
                Work::Transfer { bytes, route, .. }
                    if route.of(&self.routes).contains(&resource) =>
                {
                    bytes
                }
                _ => 0.0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_splits_on_colon() {
        let mut g = TaskGraph::new();
        let a = g.milestone("loadkv:layer0:head3", &[]);
        let b = g.milestone("plain", &[]);
        assert_eq!(g.task(a).category(), "loadkv");
        assert_eq!(g.task(b).category(), "plain");
    }

    #[test]
    fn builder_wires_dependencies() {
        let mut g = TaskGraph::new();
        let a = g.delay("a", SimTime::from_nanos(1), &[]);
        let b = g.milestone("b", &[a]);
        let c = g.milestone("c", &[a, b]);
        assert_eq!(g.task(c).deps(), &[a, b]);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn background_flag() {
        let mut g = TaskGraph::new();
        let a = g.milestone("spill", &[]);
        assert!(!g.task(a).is_background());
        g.set_background(a);
        assert!(g.task(a).is_background());
    }

    #[test]
    fn traffic_accounting() {
        let mut g = TaskGraph::new();
        let r0 = ResourceId(0);
        let r1 = ResourceId(1);
        g.transfer("x", 100.0, vec![r0], &[]);
        g.transfer("y", 50.0, vec![r0, r1], &[]);
        g.compute("z", 1e9, r1, &[]);
        assert_eq!(g.total_transfer_bytes(), 150.0);
        assert_eq!(g.transfer_bytes_through(r0), 150.0);
        assert_eq!(g.transfer_bytes_through(r1), 50.0);
    }

    #[test]
    fn add_deps_appends() {
        let mut g = TaskGraph::new();
        let a = g.milestone("a", &[]);
        let b = g.milestone("b", &[]);
        let c = g.milestone("c", &[a]);
        g.add_deps(c, &[b]);
        assert_eq!(g.task(c).deps(), &[a, b]);
        // A task whose list is not at the arena's end keeps its old deps
        // and leaves its neighbours' untouched.
        g.add_deps(b, &[a]);
        g.add_deps(b, &[c]);
        assert_eq!(g.task(b).deps(), &[a, c]);
        assert_eq!(g.task(c).deps(), &[a, b]);
        assert_eq!(g.task(a).deps(), &[]);
    }
}
