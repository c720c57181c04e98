//! Task graphs: dependency-ordered work submitted to the flow engine.
//!
//! A [`TaskGraph`] is a DAG of [`Task`]s. Each task is a transfer (bytes
//! over a route of links), a compute (FLOPs on one engine), a fixed delay
//! (command latency, kernel launch) or a zero-cost milestone used as a
//! synchronization point. Tasks carry a [`Label`] whose head *up to the
//! first `':'`* is treated as a category for breakdown reporting
//! (e.g. `"loadw:layer3"` → category `loadw`).
//!
//! Tasks marked **background** (e.g. the delayed KV-cache spills of §4.3 of
//! the paper) contend for resources like any other task but are excluded
//! from the foreground makespan.

use crate::resource::{Hop, ResourceId};
use crate::time::SimTime;
use std::fmt;
use std::ops::Range;

/// A task's label, kept unformatted: a static head, an optional layer
/// index, an optional device index (or run of devices) and a static tail,
/// rendered as `{head}{layer}.d{device}{tail}` only when it is read; a run
/// of devices renders as `.d{first}-{last}`.
///
/// # Examples
///
/// ```
/// use hilos_sim::Label;
///
/// let read = Label::new("loadkv:l").layer(3).device(7);
/// assert_eq!(read.to_string(), "loadkv:l3.d7");
/// assert_eq!(read.tail(".cmd").to_string(), "loadkv:l3.d7.cmd");
/// assert_eq!(read.category(), "loadkv");
/// assert_eq!(Label::from("plain").to_string(), "plain");
/// assert_eq!(Label::new("atn:l").layer(0).devices(4, 4).to_string(), "atn:l0.d4-7");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label {
    head: &'static str,
    layer: Option<u32>,
    device: Option<u32>,
    /// Devices after `device` the label also names.
    more_devices: u32,
    tail: &'static str,
}

impl Label {
    /// A label that is just `head`.
    pub const fn new(head: &'static str) -> Self {
        Label { head, layer: None, device: None, more_devices: 0, tail: "" }
    }

    /// The label with its layer index set (rendered right after the head).
    pub const fn layer(self, layer: u32) -> Self {
        Label { layer: Some(layer), ..self }
    }

    /// The label with its device index set (rendered as `.d{device}`).
    pub const fn device(self, device: usize) -> Self {
        Label { device: Some(device as u32), more_devices: 0, ..self }
    }

    /// The label naming the `count` devices from `first` on (rendered as
    /// `.d{first}-{last}`, or as [`Label::device`] for one device).
    pub const fn devices(self, first: usize, count: usize) -> Self {
        Label { device: Some(first as u32), more_devices: (count as u32).saturating_sub(1), ..self }
    }

    /// The label with its tail set (rendered last, e.g. `".cmd"`).
    pub const fn tail(self, tail: &'static str) -> Self {
        Label { tail, ..self }
    }

    /// The category: the head up to its first `':'`, or the whole head if
    /// it contains none.
    pub fn category(&self) -> &'static str {
        match self.head.split_once(':') {
            Some((category, _)) => category,
            None => self.head,
        }
    }
}

impl From<&'static str> for Label {
    fn from(head: &'static str) -> Self {
        Label::new(head)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.head)?;
        if let Some(layer) = self.layer {
            write!(f, "{layer}")?;
        }
        if let Some(device) = self.device {
            write!(f, ".d{device}")?;
            if self.more_devices > 0 {
                write!(f, "-{}", device + self.more_devices)?;
            }
        }
        f.write_str(self.tail)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{self}\"")
    }
}

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
        /// Resources crossed (links, memory ports, storage channels),
        /// each with the identical flows the task stands for on it.
        route: &'g [Hop],
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
    label: Label,
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
    pub fn label(&self) -> Label {
        self.node.label
    }

    /// The label's category (see [`Label::category`]).
    pub fn category(&self) -> &'static str {
        self.node.label.category()
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
/// The graph is append-only: a task's dependencies are fixed when it is
/// added. Dependency lists and routes of all tasks live in two shared arenas
/// beside the node list, and each label is a [`Label`] stored in its node,
/// so adding a task allocates nothing of its own and formats nothing. A
/// builder that knows its graph's shape sizes all three up front with
/// [`TaskGraph::with_capacity`].
///
/// # Examples
///
/// ```
/// use hilos_sim::{FlowEngine, Label, ResourceKind, ResourceSpec, TaskGraph};
///
/// let mut eng = FlowEngine::new();
/// let link = eng.add_resource(ResourceSpec::new("link", ResourceKind::Link, 1e9));
/// let gpu = eng.add_resource(ResourceSpec::new("gpu", ResourceKind::Compute, 1e12));
///
/// let mut g = TaskGraph::new();
/// let load = g.transfer("loadw:l0", 1e9, [link], &[]);
/// let mm = g.compute(Label::new("gemm:l").layer(0), 2e12, gpu, &[load]);
/// assert_eq!(g.len(), 2);
/// assert_eq!(g.task(mm).deps(), &[load]);
/// assert_eq!(g.task(mm).label().to_string(), "gemm:l0");
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskGraph {
    nodes: Vec<Node>,
    deps: Vec<TaskId>,
    routes: Vec<Hop>,
    blocks: Vec<Block>,
}

/// A run of consecutive tasks that stands for `copies` identical
/// per-device copies of itself (see [`TaskGraph::copies`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Block {
    /// The block's tasks, by index.
    pub(crate) tasks: Range<u32>,
    /// How many devices' copies the block stands for.
    pub(crate) copies: u32,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Creates an empty graph with room for `tasks` tasks, `deps`
    /// dependency entries and `hops` route hops in total, so a graph that
    /// stays within them is built without regrowing a buffer.
    pub fn with_capacity(tasks: usize, deps: usize, hops: usize) -> Self {
        TaskGraph {
            nodes: Vec::with_capacity(tasks),
            deps: Vec::with_capacity(deps),
            routes: Vec::with_capacity(hops),
            blocks: Vec::new(),
        }
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

    fn push(&mut self, label: impl Into<Label>, work: Work, deps: &[TaskId]) -> TaskId {
        let id = TaskId(self.nodes.len() as u32);
        let deps_start = self.deps.len() as u32;
        self.deps.extend_from_slice(deps);
        self.nodes.push(Node {
            label: label.into(),
            work,
            deps: Span(deps_start, self.deps.len() as u32),
            background: false,
        });
        id
    }

    fn push_route(&mut self, route: impl IntoIterator<Item = impl Into<Hop>>) -> Span {
        let start = self.routes.len() as u32;
        self.routes.extend(route.into_iter().map(Into::into));
        Span(start, self.routes.len() as u32)
    }

    /// Appends the tasks `add` appends as one block standing for `copies`
    /// identical per-device copies of itself, the way a per-device graph
    /// would append them device after device.
    ///
    /// The block's tasks are built for one device of a class of `copies`
    /// identical devices: each crosses that device's own resources with
    /// one copy and every resource the class shares with as many copies
    /// as class devices cross it (see [`Hop`]). The flow engine then
    /// gives each task the rate, and so the span, of every per-device
    /// copy, and [`crate::Timeline::category_seconds`] counts the block
    /// `copies` times over, in the per-device graph's order.
    ///
    /// # Panics
    ///
    /// Panics if `copies` is zero or if `add` opens a block of its own.
    ///
    /// # Examples
    ///
    /// ```
    /// use hilos_sim::{execute, FlowEngine, Hop, Label, ResourceKind, ResourceSpec, TaskGraph};
    ///
    /// let mut eng = FlowEngine::new();
    /// let add = |eng: &mut FlowEngine, bw| eng.add_resource(ResourceSpec::new("l", ResourceKind::Link, bw));
    /// let (own, shared) = (add(&mut eng, 1e9), add(&mut eng, 4e9));
    /// let mut g = TaskGraph::new();
    /// // Eight devices' reads as one task: each device's own link once,
    /// // the shared link eight times.
    /// let read = g.copies(8, |g| {
    ///     g.transfer(Label::new("read:").devices(0, 8), 1e9, [Hop::new(own, 1), Hop::new(shared, 8)], &[])
    /// });
    /// let timeline = execute(&mut eng, &g).unwrap();
    /// assert_eq!(timeline.span(read).unwrap().seconds(), 2.0);
    /// assert_eq!(timeline.category_seconds(&g), vec![("read".to_string(), 16.0)]);
    /// ```
    pub fn copies<R>(&mut self, copies: u32, add: impl FnOnce(&mut TaskGraph) -> R) -> R {
        assert!(copies > 0, "a block stands for at least one copy");
        let start = self.nodes.len() as u32;
        let blocks = self.blocks.len();
        let added = add(self);
        assert_eq!(self.blocks.len(), blocks, "blocks of copies do not nest");
        let end = self.nodes.len() as u32;
        if end > start {
            self.blocks.push(Block { tasks: start..end, copies });
        }
        added
    }

    /// The blocks of copies, in task order.
    pub(crate) fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Adds a transfer task.
    pub fn transfer(
        &mut self,
        label: impl Into<Label>,
        bytes: f64,
        route: impl IntoIterator<Item = impl Into<Hop>>,
        deps: &[TaskId],
    ) -> TaskId {
        let route = self.push_route(route);
        self.push(label, Work::Transfer { bytes, route, rate_cap: None }, deps)
    }

    /// Adds a transfer task with a per-task rate cap in bytes/s.
    pub fn transfer_capped(
        &mut self,
        label: impl Into<Label>,
        bytes: f64,
        route: impl IntoIterator<Item = impl Into<Hop>>,
        rate_cap: f64,
        deps: &[TaskId],
    ) -> TaskId {
        let route = self.push_route(route);
        self.push(label, Work::Transfer { bytes, route, rate_cap: Some(rate_cap) }, deps)
    }

    /// Adds a compute task.
    pub fn compute(
        &mut self,
        label: impl Into<Label>,
        ops: f64,
        resource: ResourceId,
        deps: &[TaskId],
    ) -> TaskId {
        self.push(label, Work::Compute { ops, resource }, deps)
    }

    /// Adds a fixed-latency task.
    pub fn delay(&mut self, label: impl Into<Label>, duration: SimTime, deps: &[TaskId]) -> TaskId {
        self.push(label, Work::Delay { duration }, deps)
    }

    /// Adds a zero-cost synchronization milestone.
    pub fn milestone(&mut self, label: impl Into<Label>, deps: &[TaskId]) -> TaskId {
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
    fn labels_render_on_demand() {
        let mut g = TaskGraph::with_capacity(3, 0, 0);
        let head = Label::new("loadw:attn").layer(2);
        let a = g.milestone(head.device(15), &[]);
        let b = g.milestone(head.tail(".done"), &[]);
        let c = g.milestone(Label::new("storekv:l").layer(0).device(3).tail(".cmd"), &[]);
        assert_eq!(g.task(a).label().to_string(), "loadw:attn2.d15");
        assert_eq!(g.task(b).label().to_string(), "loadw:attn2.done");
        assert_eq!(g.task(c).label().to_string(), "storekv:l0.d3.cmd");
        assert_eq!(g.task(c).category(), "storekv");
        assert_eq!(format!("{:?}", g.task(a).label()), "\"loadw:attn2.d15\"");
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
}
