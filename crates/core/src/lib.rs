//! # hilos-core — the HILOS framework
//!
//! The paper's primary contribution: high-throughput offline LLM inference
//! with near-storage processing. This crate implements, on top of the
//! simulation substrates:
//!
//! * **attention near storage** (§4.1) — the decode schedule that confines
//!   KV-cache traffic to the devices' internal paths ([`build_hilos_decode_step`],
//!   with the Eq. 3 traffic model in [`traffic`]),
//! * **cooperative X-cache** (§4.2) — the analytic α model and candidate
//!   selection ([`AlphaModel`], chosen per job by [`AlphaSelector`]);
//!   `AlphaPolicy::Fixed(0.0)` is X-cache off,
//! * **delayed KV-cache writeback** (§4.3) — the host-side buffer's
//!   spill schedule, arithmetic on the decode step count
//!   ([`decision_at`]), plus the sub-page write-cost model,
//! * the **Inference Controller** ([`HilosSystem`]) that runs simulated
//!   prefill/decode jobs and reports throughput, utilization and traffic,
//!   with every decode step executed by the reusable
//!   [`DecodeStepExecutor`],
//! * **request-level serving** ([`serve`]) — continuous batching over
//!   heterogeneous request traces behind a pluggable [`SchedulingPolicy`]
//!   API (FIFO, deadline-EDF with opt-in overload shedding,
//!   priority-preemptive), with per-device KV shard admission,
//!   recompute-style preemption, token-budgeted chunked prefill
//!   ([`ChunkMode`]) that models prompt-ingestion contention with the
//!   running decode batch, and TTFT/ITL/goodput reporting,
//! * **cluster serving** ([`cluster`]) — one trace balanced across
//!   heterogeneous deployments by a pluggable [`RoutingPolicy`]
//!   (round-robin, join-shortest-queue, ledger-pressure), with
//!   cross-deployment re-dispatch of preempted requests and aggregated
//!   [`ClusterReport`]s,
//! * a **functional pipeline** ([`FunctionalBlock`]) proving bit-level
//!   equivalence of the ANS / X-cache / writeback numerics against the
//!   baseline.
//!
//! # Example
//!
//! ```
//! use hilos_core::{HilosConfig, HilosSystem};
//! use hilos_llm::presets;
//! use hilos_platform::SystemSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = HilosSystem::new(
//!     &SystemSpec::a100_smartssd(8),
//!     &presets::opt_30b(),
//!     &HilosConfig::new(8),
//! )?
//! .with_sim_layers(4);
//! let report = system.run_decode(16, 16 * 1024, 4)?;
//! assert!(report.tokens_per_second() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
pub mod cluster;
mod config;
mod functional;
mod runner;
mod scheduler;
pub mod serve;
mod step;
pub mod traffic;
mod writeback;
mod xcache;

pub use campaign::{CampaignSummary, ServingCampaign};
pub use cluster::{
    AutoscalePolicy, ClusterReport, ClusterSnapshot, ColdStartModel, CostNormalizedPressure,
    DeploymentView, ElasticClusterEngine, ElasticConfig, ElasticReport, FleetSnapshot,
    HybridHistogramKeepAlive, JoinShortestQueue, LedgerPressure, LifecycleEvent, LifecycleState,
    PinnedFleet, RoundRobin, RouteRequest, RoutingPolicy, ScaleDecision, TargetPressureScaler,
};
pub use config::{AlphaPolicy, HilosConfig};
pub use functional::FunctionalBlock;
pub use hilos_trace as trace;
pub use runner::{CoreError, HilosSystem, JobReport, PrefillReport, RunReport};
pub use scheduler::{
    build_hilos_decode_step, build_hilos_prefill, load_weights, weight_source, DecodeStepSpec,
    WeightSource, GDS_EFFICIENCY, SUB_PAGE_WRITE_PENALTY_S,
};
pub use serve::{
    class_breakdown_of, outcome_lifecycle_fnv, throughput_of, token_goodput_of, ttft_stats_of,
    ChunkMode, DeadlineEdf, Fifo, InFlightView, PrefixCacheConfig, PriorityPreempt, QueuedView,
    RequestOutcome, SchedDecision, SchedSnapshot, SchedulingPolicy, ServeConfig, ServeEngine,
    ShedOutcome, TraceReport,
};
pub use step::{AlphaSelector, DecodeStepExecutor, StepOutcome};
pub use writeback::{
    decision_at, partial_score_flops, peak_buffer_bytes, simulated_decision,
    spill_nand_bytes_per_token, SpillDecision,
};
pub use xcache::{paper_alpha_mha, AlphaModel, ALPHA_CANDIDATES};
