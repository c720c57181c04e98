//! Task-graph execution on the flow engine.
//!
//! [`execute`] runs a [`TaskGraph`] to completion on a [`FlowEngine`],
//! honoring dependencies, and returns a [`Timeline`] with per-task spans,
//! the foreground makespan and per-resource statistics for the window.

use crate::engine::{FlowEngine, JobId};
use crate::error::SimError;
use crate::resource::{ResourceId, ResourceStats};
use crate::task::{TaskGraph, TaskId, TaskKind};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Start and end instant of one executed task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpan {
    /// When the task started (all dependencies satisfied).
    pub start: SimTime,
    /// When the task completed.
    pub end: SimTime,
}

impl TaskSpan {
    /// Duration of the span in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Result of executing a [`TaskGraph`].
#[derive(Debug, Clone)]
pub struct Timeline {
    spans: Vec<Option<TaskSpan>>,
    started_at: SimTime,
    foreground_end: SimTime,
    finished_at: SimTime,
    resource_delta: Vec<ResourceStats>,
}

impl Timeline {
    /// The instant execution began.
    pub fn started_at(&self) -> SimTime {
        self.started_at
    }

    /// The instant the last *foreground* task finished.
    pub fn foreground_end(&self) -> SimTime {
        self.foreground_end
    }

    /// The instant the last task (including background) finished.
    pub fn finished_at(&self) -> SimTime {
        self.finished_at
    }

    /// Foreground makespan: time from start to the last foreground
    /// completion. Background tasks (e.g. delayed KV-cache spills) contend
    /// for bandwidth but do not extend this value.
    pub fn makespan(&self) -> SimTime {
        self.foreground_end - self.started_at
    }

    /// Makespan including background tasks.
    pub fn total_duration(&self) -> SimTime {
        self.finished_at - self.started_at
    }

    /// The span of a task, if it executed.
    pub fn span(&self, id: TaskId) -> Option<TaskSpan> {
        self.spans.get(id.index()).copied().flatten()
    }

    /// Sums task durations by label category (prefix before `':'`).
    ///
    /// Because tasks overlap, the sum across categories generally exceeds
    /// the makespan; use the result for *relative* breakdowns as the paper
    /// does in Figs. 2b, 4b and 11b.
    pub fn category_seconds(&self, graph: &TaskGraph) -> Vec<(String, f64)> {
        // A graph has a handful of categories, so a linear probe stands in
        // for a map; each sum accumulates in task order either way.
        let mut acc: Vec<(&str, f64)> = Vec::new();
        for (id, task) in graph.iter() {
            if let Some(span) = self.span(id) {
                let category = task.category();
                match acc.iter_mut().find(|(c, _)| *c == category) {
                    Some((_, sum)) => *sum += span.seconds(),
                    None => acc.push((category, span.seconds())),
                }
            }
        }
        acc.sort_unstable_by(|a, b| a.0.cmp(b.0));
        acc.into_iter().map(|(c, s)| (c.to_string(), s)).collect()
    }

    /// Per-resource statistics accumulated over this execution window.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the engine the graph ran on.
    pub fn resource_stats(&self, id: ResourceId) -> ResourceStats {
        self.resource_delta[id.index()]
    }

    /// Utilization of a resource over the execution window, in `[0, 1]`.
    pub fn utilization(&self, id: ResourceId) -> f64 {
        self.resource_stats(id).utilization()
    }
}

/// Executes `graph` on `engine`, starting at the engine's current time.
///
/// # Errors
///
/// * [`SimError::UnknownTask`] if a dependency index is out of range.
/// * [`SimError::DependencyCycle`] if the graph is not a DAG.
/// * Any engine error surfaced while submitting or advancing.
pub fn execute(engine: &mut FlowEngine, graph: &TaskGraph) -> Result<Timeline, SimError> {
    let n = graph.len();
    let started_at = engine.now();
    let stats_before = engine.stats_snapshot();

    // Dependency counts and successor lists in compressed rows: the tasks
    // waiting on `t` are `successors[first[t]..first[t + 1]]`, in task
    // order.
    let mut indegree: Vec<u32> = vec![0; n];
    let mut first: Vec<u32> = vec![0; n + 1];
    for (id, task) in graph.iter() {
        for d in task.deps() {
            if d.index() >= n {
                return Err(SimError::UnknownTask(d.index()));
            }
            first[d.index() + 1] += 1;
        }
        indegree[id.index()] = task.deps().len() as u32;
    }
    for t in 0..n {
        first[t + 1] += first[t];
    }
    let mut cursor: Vec<u32> = first[..n].to_vec();
    let mut successors: Vec<u32> = vec![0; first[n] as usize];
    for (id, task) in graph.iter() {
        for d in task.deps() {
            let c = &mut cursor[d.index()];
            successors[*c as usize] = id.0;
            *c += 1;
        }
    }

    let mut spans: Vec<Option<TaskSpan>> = vec![None; n];
    let mut starts: Vec<SimTime> = vec![started_at; n];
    let mut completed = 0usize;
    let mut foreground_end = started_at;
    let mut finished_at = started_at;

    // The task each engine job slot is running, keyed by job sequence so
    // a job submitted outside this graph is never mistaken for one of its
    // tasks.
    let mut slot_task: Vec<(u64, u32)> = Vec::new();
    fn run_on(slot_task: &mut Vec<(u64, u32)>, job: JobId, task: u32) {
        let slot = job.slot as usize;
        if slot >= slot_task.len() {
            slot_task.resize(slot + 1, (u64::MAX, 0));
        }
        slot_task[slot] = (job.seq, task);
    }
    let mut completions = Vec::new();
    // (wake time, insertion order, task) — min-heap via Reverse.
    let mut wakeups: BinaryHeap<Reverse<(SimTime, u64, u32)>> = BinaryHeap::new();
    let mut wake_seq = 0u64;

    // Stack of tasks ready to start at `now`.
    let mut ready: Vec<u32> = (0..n as u32).filter(|&i| indegree[i as usize] == 0).collect();
    // Preserve submission order for determinism.
    ready.reverse();

    // Completes `task` at `now`, unlocking successors onto `ready`.
    macro_rules! complete {
        ($task:expr, $now:expr, $ready:expr) => {{
            let t = $task as usize;
            let now: SimTime = $now;
            spans[t] = Some(TaskSpan { start: starts[t], end: now });
            completed += 1;
            finished_at = finished_at.max(now);
            if !graph.task(TaskId(t as u32)).is_background() {
                foreground_end = foreground_end.max(now);
            }
            for &s in &successors[first[t] as usize..first[t + 1] as usize] {
                indegree[s as usize] -= 1;
                if indegree[s as usize] == 0 {
                    $ready.push(s);
                }
            }
        }};
    }

    loop {
        // Start every ready task at the current time; milestones and
        // zero-work tasks complete (and cascade) immediately.
        while let Some(t) = ready.pop() {
            let now = engine.now();
            starts[t as usize] = now;
            match graph.task(TaskId(t)).kind() {
                TaskKind::Milestone => complete!(t, now, ready),
                TaskKind::Delay { duration } => {
                    if duration.is_zero() {
                        complete!(t, now, ready);
                    } else {
                        wakeups.push(Reverse((now + duration, wake_seq, t)));
                        wake_seq += 1;
                    }
                }
                TaskKind::Transfer { bytes, route, rate_cap } => {
                    if bytes <= 0.0 {
                        complete!(t, now, ready);
                    } else {
                        let job = engine.submit(route, bytes, rate_cap)?;
                        run_on(&mut slot_task, job, t);
                    }
                }
                TaskKind::Compute { ops, resource } => {
                    if ops <= 0.0 {
                        complete!(t, now, ready);
                    } else {
                        let job = engine.submit(&[resource], ops, None)?;
                        run_on(&mut slot_task, job, t);
                    }
                }
            }
        }

        if completed == n {
            break;
        }

        // Decide the next event time.
        let flow_next = engine.next_completion_time();
        let wake_next = wakeups.peek().map(|Reverse((t, _, _))| *t);
        let next = match (flow_next, wake_next) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => {
                let stuck: Vec<usize> = (0..n).filter(|&i| spans[i].is_none()).collect();
                return Err(SimError::DependencyCycle(stuck));
            }
        };

        // Advance flows; collect flow completions at `next`.
        completions.clear();
        engine.advance_into(next, &mut completions)?;
        for c in &completions {
            let entry = slot_task.get(c.job.slot as usize).copied();
            if let Some((_, t)) = entry.filter(|&(seq, _)| seq == c.job.seq) {
                complete!(t, next, ready);
            }
        }
        // Fire due wakeups.
        while let Some(Reverse((t, _, _))) = wakeups.peek() {
            if *t > next {
                break;
            }
            let Reverse((_, _, task)) = wakeups.pop().unwrap();
            complete!(task, next, ready);
        }
    }

    // Resource deltas over the window.
    let stats_after = engine.stats_snapshot();
    let resource_delta =
        stats_after.iter().zip(stats_before.iter()).map(|(a, b)| a.since(b)).collect();

    Ok(Timeline { spans, started_at, foreground_end, finished_at, resource_delta })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::{ResourceKind, ResourceSpec};

    fn engine_with(bw: &[f64]) -> (FlowEngine, Vec<ResourceId>) {
        let mut eng = FlowEngine::new();
        let ids = bw
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                eng.add_resource(ResourceSpec::new(format!("r{i}"), ResourceKind::Link, b))
            })
            .collect();
        (eng, ids)
    }

    #[test]
    fn sequential_chain_sums_durations() {
        let (mut eng, r) = engine_with(&[1e9]);
        let mut g = TaskGraph::new();
        let a = g.transfer("a", 1e9, vec![r[0]], &[]);
        let b = g.transfer("b", 2e9, vec![r[0]], &[a]);
        g.delay("c", SimTime::from_secs(1), &[b]);
        let tl = execute(&mut eng, &g).unwrap();
        assert_eq!(tl.makespan(), SimTime::from_secs(4));
        assert_eq!(tl.span(a).unwrap().end, SimTime::from_secs(1));
        assert_eq!(tl.span(b).unwrap().start, SimTime::from_secs(1));
    }

    #[test]
    fn parallel_tasks_share_bandwidth() {
        let (mut eng, r) = engine_with(&[1e9]);
        let mut g = TaskGraph::new();
        g.transfer("a", 1e9, vec![r[0]], &[]);
        g.transfer("b", 1e9, vec![r[0]], &[]);
        let tl = execute(&mut eng, &g).unwrap();
        assert_eq!(tl.makespan(), SimTime::from_secs(2));
    }

    #[test]
    fn independent_resources_overlap() {
        let (mut eng, r) = engine_with(&[1e9, 1e9]);
        let mut g = TaskGraph::new();
        g.transfer("a", 1e9, vec![r[0]], &[]);
        g.transfer("b", 1e9, vec![r[1]], &[]);
        let tl = execute(&mut eng, &g).unwrap();
        assert_eq!(tl.makespan(), SimTime::from_secs(1));
    }

    #[test]
    fn milestones_cascade_instantly() {
        let (mut eng, _r) = engine_with(&[1e9]);
        let mut g = TaskGraph::new();
        let a = g.milestone("a", &[]);
        let b = g.milestone("b", &[a]);
        let c = g.milestone("c", &[b]);
        let tl = execute(&mut eng, &g).unwrap();
        assert_eq!(tl.makespan(), SimTime::ZERO);
        assert_eq!(tl.span(c).unwrap().end, SimTime::ZERO);
    }

    #[test]
    fn background_excluded_from_makespan() {
        let (mut eng, r) = engine_with(&[1e9]);
        let mut g = TaskGraph::new();
        g.transfer("fg", 1e9, vec![r[0]], &[]);
        let spill = g.transfer("spill", 3e9, vec![r[0]], &[]);
        g.set_background(spill);
        let tl = execute(&mut eng, &g).unwrap();
        // Foreground shares the link while the spill runs: fg finishes at 2s.
        assert_eq!(tl.makespan(), SimTime::from_secs(2));
        assert_eq!(tl.total_duration(), SimTime::from_secs(4));
    }

    #[test]
    fn diamond_dependencies() {
        let (mut eng, r) = engine_with(&[1e9, 1e9]);
        let mut g = TaskGraph::new();
        let src = g.delay("src", SimTime::from_secs(1), &[]);
        let l = g.transfer("left", 1e9, vec![r[0]], &[src]);
        let rt = g.transfer("right", 2e9, vec![r[1]], &[src]);
        let sink = g.milestone("sink", &[l, rt]);
        let tl = execute(&mut eng, &g).unwrap();
        assert_eq!(tl.span(sink).unwrap().end, SimTime::from_secs(3));
    }

    #[test]
    fn cycle_detected() {
        let (mut eng, _r) = engine_with(&[1e9]);
        let mut g = TaskGraph::new();
        let a = g.milestone("a", &[]);
        let b = g.milestone("b", &[a]);
        g.add_deps(a, &[b]);
        match execute(&mut eng, &g) {
            Err(SimError::DependencyCycle(ids)) => assert_eq!(ids, vec![0, 1]),
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_dependency_rejected() {
        let (mut eng, _r) = engine_with(&[1e9]);
        let mut g = TaskGraph::new();
        let a = g.milestone("a", &[]);
        // Manually corrupt: dependency on a non-existent task id.
        g.add_deps(a, &[]);
        let mut g2 = TaskGraph::new();
        g2.milestone("x", &[TaskId(5)]);
        assert!(matches!(execute(&mut eng, &g2), Err(SimError::UnknownTask(5))));
    }

    #[test]
    fn zero_work_tasks_complete_instantly() {
        let (mut eng, r) = engine_with(&[1e9]);
        let mut g = TaskGraph::new();
        let a = g.transfer("a", 0.0, vec![r[0]], &[]);
        let b = g.compute("b", 0.0, r[0], &[a]);
        let tl = execute(&mut eng, &g).unwrap();
        assert_eq!(tl.span(b).unwrap().end, SimTime::ZERO);
    }

    #[test]
    fn category_seconds_aggregates_prefixes() {
        let (mut eng, r) = engine_with(&[1e9]);
        let mut g = TaskGraph::new();
        let a = g.transfer("loadw:0", 1e9, vec![r[0]], &[]);
        g.transfer("loadw:1", 1e9, vec![r[0]], &[a]);
        g.delay("compute:0", SimTime::from_secs(1), &[]);
        let tl = execute(&mut eng, &g).unwrap();
        let cats = tl.category_seconds(&g);
        let loadw = cats.iter().find(|(c, _)| c == "loadw").unwrap().1;
        let comp = cats.iter().find(|(c, _)| c == "compute").unwrap().1;
        assert!((loadw - 2.0).abs() < 1e-9);
        assert!((comp - 1.0).abs() < 1e-9);
    }

    #[test]
    fn successive_graphs_on_one_engine_accumulate_time() {
        let (mut eng, r) = engine_with(&[1e9]);
        let mut g = TaskGraph::new();
        g.transfer("a", 1e9, vec![r[0]], &[]);
        let t1 = execute(&mut eng, &g).unwrap();
        let t2 = execute(&mut eng, &g).unwrap();
        assert_eq!(t1.started_at(), SimTime::ZERO);
        assert_eq!(t2.started_at(), SimTime::from_secs(1));
        assert_eq!(t2.finished_at(), SimTime::from_secs(2));
        // Window stats are deltas, not cumulative.
        assert!((t2.resource_stats(r[0]).units_served - 1e9).abs() < 1e3);
    }

    #[test]
    fn jobs_submitted_outside_the_graph_complete_no_task() {
        // A job already in flight holds engine slot 0 and finishes first;
        // its completion must not be taken for the graph's task.
        let (mut eng, r) = engine_with(&[1e9, 1e9]);
        eng.submit(&[r[0]], 0.5e9, None).unwrap();
        let mut g = TaskGraph::new();
        let a = g.transfer("a", 2e9, [r[1]], &[]);
        let tl = execute(&mut eng, &g).unwrap();
        assert_eq!(tl.span(a).unwrap().end, SimTime::from_secs(2));
        assert_eq!(tl.makespan(), SimTime::from_secs(2));
    }

    #[test]
    fn utilization_reported_per_window() {
        let (mut eng, r) = engine_with(&[2e9]);
        let mut g = TaskGraph::new();
        let a = g.transfer("a", 1e9, vec![r[0]], &[]);
        g.delay("wait", SimTime::from_millis(500), &[a]);
        let tl = execute(&mut eng, &g).unwrap();
        // Busy 0.5s of a 1.0s window.
        assert!((tl.utilization(r[0]) - 0.5).abs() < 1e-9);
    }
}
