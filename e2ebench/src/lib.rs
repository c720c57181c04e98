//! End-to-end benchmark of the HILOS reproduction.
//!
//! Three seeded workloads — `offline-longctx`, `serve-prefix` and
//! `fleet-elastic` — each drive the library through its public calls
//! only, check the outputs, and report the modeled system's metrics
//! (simulated clock) next to the simulator's own cost (host clock). A
//! separate traced run breaks both down by layer. See `README.md` for
//! why each workload exists and what each metric should move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod probes;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
