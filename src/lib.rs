//! # HILOS — near-storage processing for offline inference of long-context LLMs
//!
//! This is the umbrella crate of the HILOS reproduction (Jang et al.,
//! ASPLOS 2026). It re-exports every subsystem crate under a single
//! namespace so that examples and downstream users can depend on one crate.
//!
//! The repository contains:
//!
//! * [`sim`] — deterministic flow-level discrete-event simulator (the
//!   hardware substrate every experiment runs on),
//! * [`interconnect`] — PCIe topology model (Fig. 3 of the paper),
//! * [`storage`] — SSD/NAND flash model with endurance budgets,
//! * [`accel`] — the attention accelerator: bit-faithful functional kernel
//!   (two-pass softmax, online transpose, GQA) plus cycle/resource models,
//! * [`llm`] — model configurations (Table 2) and workloads,
//! * [`platform`] — device catalog and system builders,
//! * [`core`] — the HILOS framework itself: attention-near-storage,
//!   cooperative X-cache, delayed KV-cache writeback,
//! * [`baselines`] — FlexGen-, DeepSpeed-, vLLM- and InstAttention-style
//!   comparison systems,
//! * [`metrics`] — energy, cost-efficiency and endurance models,
//! * [`trace`] — deterministic request-lifecycle event log with latency
//!   attribution and Perfetto export.
//!
//! # Quick start
//!
//! ```
//! use hilos::core::{HilosConfig, HilosSystem};
//! use hilos::llm::presets;
//! use hilos::platform::SystemSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = presets::opt_30b();
//! let config = HilosConfig::new(8).with_spill_interval(16);
//! let system = HilosSystem::new(&SystemSpec::a100_server(), &model, &config)?;
//! let report = system.run_decode(4, 16 * 1024, 4)?;
//! assert!(report.tokens_per_second() > 0.0);
//! # Ok(())
//! # }
//! ```

pub use hilos_accel as accel;
pub use hilos_baselines as baselines;
pub use hilos_core as core;
pub use hilos_interconnect as interconnect;
pub use hilos_llm as llm;
pub use hilos_metrics as metrics;
pub use hilos_platform as platform;
pub use hilos_sim as sim;
pub use hilos_storage as storage;
pub use hilos_trace as trace;
