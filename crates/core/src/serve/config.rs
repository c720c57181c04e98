//! Serving-loop configuration: the batch cap, goodput deadline, step-memo
//! context quantum, prefill chunking ([`ChunkMode`]), prefix KV-cache
//! sizing ([`PrefixCacheConfig`]) and lifecycle tracing.
//!
//! Every field is public, so a configuration can be written as a struct
//! literal as well as through the builders; [`ServeConfig::validate`] is
//! the one place its invariants are checked, and
//! [`ServeEngine::with_policy`](super::ServeEngine::with_policy) calls it.

use crate::runner::CoreError;

/// How prompt ingestion shares the serving step with decoding.
///
/// The paper's pipeline runs prefill and decode as separate phases of
/// one uniform job; under *serving*, prompt ingestion of newly admitted
/// requests competes with the running batch's token generation for the
/// same device bandwidth. `ChunkMode` selects how the engine models that
/// contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkMode {
    /// Legacy side-prefill: an admitted request's whole-prompt prefill
    /// is simulated once and runs fully overlapped with decoding,
    /// joining the batch when its completion time passes. Optimistic —
    /// prompt ingestion is never charged to the step — and bit-identical
    /// to the pre-chunking engine (golden-pinned). The default.
    Off,
    /// Inline whole-prompt prefill: an admitted prompt is ingested in
    /// one piece *inside* the serving step, monopolizing the devices
    /// until it completes (a vLLM-style prefill iteration). The
    /// interference baseline chunked prefill is measured against: every
    /// running decode's inter-token latency absorbs the full prompt.
    Lump,
    /// Token-budgeted chunked prefill: each step the running decode
    /// batch reserves one budget token per sequence, and the remaining
    /// budget ingests up to `chunk_tokens` of each pending prompt (in
    /// admission order), so long prompts interleave with decoding
    /// instead of stalling it — bounded inter-token inflation per step.
    Chunked {
        /// Most prompt tokens one request ingests per step.
        chunk_tokens: u64,
        /// Per-step token budget shared by decode and prefill chunks.
        step_budget_tokens: u64,
    },
}

impl ChunkMode {
    /// The default chunked operating point: 256-token chunks under a
    /// 2048-token step budget.
    pub fn chunked() -> Self {
        ChunkMode::Chunked { chunk_tokens: 256, step_budget_tokens: 2048 }
    }

    /// Whether prefill executes inside the serving step (any mode but
    /// [`ChunkMode::Off`]).
    pub fn is_inline(&self) -> bool {
        !matches!(self, ChunkMode::Off)
    }

    /// The `(chunk, budget)` knobs of the inline modes ([`ChunkMode::Lump`]
    /// is unbounded on both axes).
    pub(super) fn knobs(&self) -> (u64, u64) {
        match *self {
            ChunkMode::Off | ChunkMode::Lump => (u64::MAX, u64::MAX),
            ChunkMode::Chunked { chunk_tokens, step_budget_tokens } => {
                (chunk_tokens, step_budget_tokens)
            }
        }
    }
}

/// Sizing of the prefix KV cache and its HBM→DRAM→SSD residency ladder.
///
/// The SSD rung's capacity comes from the deployment's own device array
/// (one [`SsdSpec::smartssd_nvme`](hilos_storage::SsdSpec::smartssd_nvme)
/// per shard-ledger device); only the two hot rungs are sized here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixCacheConfig {
    /// HBM rung capacity reserved for cached prefix KV, bytes.
    pub hbm_bytes: u64,
    /// Host-DRAM staging rung capacity, bytes.
    pub dram_bytes: u64,
    /// Prefix block granularity in tokens: probes hit whole blocks only,
    /// and published prefixes round down to the block grid.
    pub block_tokens: u64,
}

impl Default for PrefixCacheConfig {
    /// 4 GiB of HBM and 32 GiB of DRAM over 64-token blocks.
    fn default() -> Self {
        PrefixCacheConfig { hbm_bytes: 4 << 30, dram_bytes: 32 << 30, block_tokens: 64 }
    }
}

/// Configuration of the serving loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Maximum requests decoded together (admission cap).
    pub max_batch: u32,
    /// Per-request end-to-end deadline for goodput accounting, seconds.
    pub deadline_s: f64,
    /// Context quantum of the step-time cache: batches whose mean context
    /// rounds to the same *nearest* multiple share one simulated step
    /// (the quantum shrinks automatically for short contexts so relative
    /// error stays bounded). Smaller is more faithful, larger is faster.
    pub ctx_quantum: u64,
    /// How prompt ingestion shares the step with decoding (defaults to
    /// the legacy side-prefill [`ChunkMode::Off`]).
    pub chunk_mode: ChunkMode,
    /// Prefix KV-cache reuse over a tiered residency ladder: admissions
    /// probe for cached shared prefixes and skip that much prefill, and
    /// preemption victims demote their KV down the ladder instead of
    /// discarding it. `None` (the default) disables the cache entirely —
    /// the engine is then bit-identical to the pre-cache loop
    /// (golden-pinned).
    pub prefix_cache: Option<PrefixCacheConfig>,
    /// Lifecycle-event tracing: `Some(capacity)` records every admission,
    /// chunk, emission, preemption and completion into an
    /// [`hilos_trace::EventRing`] of that capacity, surfaced on
    /// [`TraceReport::events`](super::TraceReport::events). `None` (the
    /// default) wires the [`hilos_trace::NullSink`] — one dead branch per
    /// would-be event, so every golden pin (and the 1M-request wall-clock
    /// budget) is untouched. Emission is observational either way:
    /// tracing never moves a clock or a counter.
    pub trace_events: Option<usize>,
}

impl ServeConfig {
    /// A serving configuration with the given admission cap, a 120 s
    /// deadline and a 1024-token context quantum.
    pub fn new(max_batch: u32) -> Self {
        ServeConfig {
            max_batch,
            deadline_s: 120.0,
            ctx_quantum: 1024,
            chunk_mode: ChunkMode::Off,
            prefix_cache: None,
            trace_events: None,
        }
    }

    /// Sets the goodput deadline.
    pub fn with_deadline(mut self, seconds: f64) -> Self {
        self.deadline_s = seconds;
        self
    }

    /// Sets the step-cache context quantum.
    pub fn with_ctx_quantum(mut self, quantum: u64) -> Self {
        self.ctx_quantum = quantum;
        self
    }

    /// Sets the prefill chunking mode.
    pub fn with_chunk_mode(mut self, mode: ChunkMode) -> Self {
        self.chunk_mode = mode;
        self
    }

    /// Enables prefix KV-cache reuse with the given ladder sizing.
    pub fn with_prefix_cache(mut self, cache: PrefixCacheConfig) -> Self {
        self.prefix_cache = Some(cache);
        self
    }

    /// Enables lifecycle-event tracing into a ring retaining up to
    /// `capacity` events (see [`ServeConfig::trace_events`]).
    pub fn with_tracing(mut self, capacity: usize) -> Self {
        self.trace_events = Some(capacity);
        self
    }

    /// Checks that every size and duration is positive: a zero batch cap
    /// admits nothing, a zero quantum divides by zero, a zero chunk or
    /// step budget never makes prefill progress, a zero prefix block
    /// cannot index a prefix, and a zero-capacity ring records nothing.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidServeConfig`] naming the first offending field:
    /// `max_batch`, `deadline_s` (also when NaN), `ctx_quantum`,
    /// `chunk_tokens`, `step_budget_tokens`, `block_tokens` or
    /// `trace_events`.
    pub fn validate(&self) -> Result<(), CoreError> {
        let (chunk, budget) = self.chunk_mode.knobs();
        let checks = [
            ("max_batch", self.max_batch > 0),
            // Written so NaN fails too.
            ("deadline_s", self.deadline_s > 0.0),
            ("ctx_quantum", self.ctx_quantum > 0),
            ("chunk_tokens", chunk > 0),
            ("step_budget_tokens", budget > 0),
            ("block_tokens", self.prefix_cache.is_none_or(|pc| pc.block_tokens > 0)),
            ("trace_events", self.trace_events != Some(0)),
        ];
        match checks.iter().find(|(_, ok)| !ok) {
            Some(&(field, _)) => Err(CoreError::InvalidServeConfig { field }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HilosConfig;
    use crate::runner::HilosSystem;
    use crate::serve::ServeEngine;
    use hilos_llm::presets;
    use hilos_platform::SystemSpec;

    #[test]
    fn struct_literal_bypasses_are_rejected_by_the_engine() {
        let system = || {
            HilosSystem::new(
                &SystemSpec::a100_smartssd(4),
                &presets::opt_30b(),
                &HilosConfig::new(4),
            )
            .unwrap()
            .with_sim_layers(1)
        };
        let base = ServeConfig::new(8);
        let cases = [
            ("max_batch", ServeConfig { max_batch: 0, ..base.clone() }),
            ("deadline_s", ServeConfig { deadline_s: 0.0, ..base.clone() }),
            ("deadline_s", ServeConfig { deadline_s: f64::NAN, ..base.clone() }),
            ("ctx_quantum", ServeConfig { ctx_quantum: 0, ..base.clone() }),
            (
                "chunk_tokens",
                ServeConfig {
                    chunk_mode: ChunkMode::Chunked { chunk_tokens: 0, step_budget_tokens: 2048 },
                    ..base.clone()
                },
            ),
            (
                "step_budget_tokens",
                ServeConfig {
                    chunk_mode: ChunkMode::Chunked { chunk_tokens: 256, step_budget_tokens: 0 },
                    ..base.clone()
                },
            ),
            (
                "block_tokens",
                ServeConfig {
                    prefix_cache: Some(PrefixCacheConfig {
                        block_tokens: 0,
                        ..PrefixCacheConfig::default()
                    }),
                    ..base.clone()
                },
            ),
            ("trace_events", ServeConfig { trace_events: Some(0), ..base.clone() }),
        ];
        for (field, config) in cases {
            match ServeEngine::new(system(), config) {
                Err(e) => assert_eq!(e, CoreError::InvalidServeConfig { field }),
                Ok(_) => panic!("{field}: an invalid config built an engine"),
            }
        }
        assert!(ServeEngine::new(system(), base.with_chunk_mode(ChunkMode::chunked())).is_ok());
    }
}
