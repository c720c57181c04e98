//! # hilos-sim — deterministic flow-level discrete-event simulator
//!
//! This crate is the hardware substrate of the HILOS reproduction. Every
//! device in the modeled systems — PCIe links, DRAM and HBM ports, SSD read
//! and write channels, GPU/CPU/FPGA compute engines — is a *resource* with a
//! capacity in units/second. Work items (*jobs*) demand an amount of units
//! across a *route* of resources they occupy simultaneously; concurrent jobs
//! share capacity by **max-min fairness** (progressive filling with optional
//! per-job rate caps), the classical flow-level model of bandwidth sharing.
//!
//! # The engine
//!
//! [`FlowEngine`] computes exact max-min rates by progressive filling,
//! recomputed whenever the active set changes (submit or complete).
//! A recompute touches only the jobs in flight and the resources they
//! cross, in reused working memory: a 16-SmartSSD world registers 136
//! resources, but a decode step loads a few dozen at a time. Exact rates
//! matter here: HILOS step transfers are multi-link PCIe routes, some of
//! them rate-capped, contending for shared root ports. Pure time advances
//! keep rates, so each job stores its absolute completion prediction and
//! `next_completion_time` is the minimum over the jobs in flight. Every
//! golden FNV pin in the serving and cluster layers is taken under this
//! engine. A route hop may stand for several identical flows (a [`Hop`]
//! with `copies`), so one job gives the numbers of k identical per-device
//! flows bit for bit; [`TaskGraph::copies`] builds a graph's per-device
//! chains that way.
//!
//! On top of the engine sits a [`TaskGraph`] layer: DAGs of transfers,
//! computes, fixed delays and milestones, with *background* tasks that
//! contend for bandwidth without extending the foreground makespan (used
//! for the paper's delayed KV-cache writeback). A graph keeps every
//! task's dependencies and route in shared arenas and its [`Label`]
//! unformatted in the node, so building one allocates per graph, not per
//! task, and formats nothing. [`execute`] runs a graph and
//! returns a [`Timeline`] with per-task spans and per-resource
//! utilization — the raw material of the paper's breakdown and energy
//! figures.
//!
//! The simulation is single-threaded and bit-deterministic: time is integer
//! picoseconds and event ordering is tied to submission order.
//!
//! # Example
//!
//! Model a GPU loading weights over PCIe while a background spill contends
//! for the same link:
//!
//! ```
//! use hilos_sim::{execute, FlowEngine, ResourceKind, ResourceSpec, SimTime, TaskGraph};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut eng = FlowEngine::new();
//! let pcie = eng.add_resource(ResourceSpec::new("pcie", ResourceKind::Link, 31.5e9));
//! let gpu = eng.add_resource(ResourceSpec::new("gpu", ResourceKind::Compute, 100e12));
//!
//! let mut g = TaskGraph::new();
//! let w = g.transfer("loadw:attn", 3.6e9, vec![pcie], &[]);
//! g.compute("qkv:proj", 14.5e9, gpu, &[w]);
//! let spill = g.transfer("spill:kv", 1.0e9, vec![pcie], &[]);
//! g.set_background(spill);
//!
//! let timeline = execute(&mut eng, &g)?;
//! assert!(timeline.makespan() > SimTime::ZERO);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod executor;
mod resource;
mod task;
mod time;
mod trace;

pub use engine::{Completion, FlowEngine, JobId};
pub use error::SimError;
pub use executor::{execute, TaskSpan, Timeline};
pub use resource::{Hop, ResourceId, ResourceKind, ResourceSpec, ResourceStats};
pub use task::{Label, Task, TaskGraph, TaskId, TaskKind};
pub use time::{SimTime, PS_PER_SEC};
pub use trace::{critical_path, gantt, GanttLane};
