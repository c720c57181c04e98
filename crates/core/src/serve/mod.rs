//! Request-level serving: continuous batching over heterogeneous requests
//! behind a pluggable scheduling-policy API.
//!
//! The paper evaluates HILOS on uniform offline batches (every sequence
//! shares one context length, Fig. 4a's prefill → decode pipeline runs
//! once per job). This module generalizes that pipeline to the serving
//! regime the ROADMAP's "heavy traffic" north-star implies: a stream of
//! [`hilos_llm::Request`]s with individual prompt lengths, output budgets
//! and [SLOs](hilos_llm::Slo), served by one continuously-running decode
//! loop.
//!
//! # Architecture
//!
//! Admission and preemption are *not* hard-wired into the engine. Each
//! step, [`ServeEngine`] publishes a read-only [`SchedSnapshot`] (the
//! admission queue, the in-flight batch, per-device KV shard headroom,
//! the clock) to a [`SchedulingPolicy`], which answers with an ordered
//! list of [`SchedDecision`]s — admit this request, preempt that victim.
//! The engine *executes* the decisions: it owns the per-device
//! [`hilos_storage::KvShardLedger`] gating, the α/spill re-selection on
//! composition change, and the recompute-style preemption path (release
//! the victim's shard allocation, re-queue it with its generated-token
//! progress retained, re-materialize its KV via a prefill over
//! `prompt + progress` on re-admission).
//!
//! Three policies ship in [`policy`]: [`Fifo`] (bit-identical to the
//! pre-policy engine, pinned by a golden test), [`DeadlineEdf`]
//! (earliest-deadline-first admission over per-request SLOs) and
//! [`PriorityPreempt`] (strict priority classes; long-output low-priority
//! victims are preempted for short high-priority arrivals). See the
//! [`policy`] module docs for a worked "implement your own policy"
//! example.
//!
//! # The token-budgeted step loop
//!
//! Each iteration of [`ServeEngine::run_trace`] is one serving step — the
//! serving-layer analogue of one trip around the paper's Fig. 4a pipeline
//! (weights stream in, fresh Q/K/V scatter to the devices, per-device KV
//! shards are swept by the near-storage accelerators while the α-fraction
//! X-cache re-projects on the GPU, the delayed-writeback buffer ticks):
//!
//! 1. **Arrivals** — requests whose `arrival_step` has passed enter the
//!    admission queue.
//! 2. **Scheduling** — the policy reads the [`SchedSnapshot`] (which now
//!    carries per-request prefill progress and the deployment's total
//!    prefill backlog) and issues [`SchedDecision`]s; the engine executes
//!    them. An admission is gated by the per-device KV shard ledger
//!    ([`hilos_storage::KvShardLedger`]): a full or weightless (offline)
//!    device rejects placement, degraded devices take proportionally
//!    less of every stripe, and a capacity miss with live requests
//!    abandons the rest of the step's decisions (head-of-line wait).
//!    Admission starts the request's prefill. A preemption releases the
//!    victim's shard allocation and re-queues it with retained progress —
//!    and under the inline chunk modes a *prefilling* victim is cheap
//!    (only its executed chunks are discarded, no decode progress is
//!    lost). A shedding policy ([`SchedulingPolicy::may_shed`]) may drop
//!    provably-hopeless queued requests as typed [`ShedOutcome`]s.
//! 3. **Chunked prefill** — under [`ChunkMode::Lump`] /
//!    [`ChunkMode::Chunked`], pending prompts are ingested *inside* the
//!    step under a shared token budget: the running batch reserves one
//!    budget token per sequence, and the remainder ingests up to one
//!    chunk of each pending prefill (admission order). The chunk time is
//!    charged to the step's clock, so prompt ingestion visibly inflates
//!    decode inter-token latency (interference) or runs with the pipeline
//!    empty (stall) — split out in [`hilos_metrics::PrefillBreakdown`].
//!    Under the legacy [`ChunkMode::Off`], prefill instead runs fully
//!    overlapped on the side, for free (bit-identical to the pre-chunking
//!    engine, golden-pinned).
//! 4. **Join** — requests whose prefill has finished (chunk cursor
//!    complete, or side-prefill clock passed) join the running batch at
//!    the step boundary (continuous batching's per-iteration join).
//! 5. **Decode** — one step of the whole batch is simulated with the same
//!    [`DecodeStepExecutor`](crate::DecodeStepExecutor) that powers
//!    `run_decode`, at the batch's mean context (the step graph is linear
//!    in `batch × context`, so the mean reproduces the heterogeneous
//!    batch's total KV traffic). The α split and the writeback spill
//!    schedule are recomputed whenever the batch composition changes.
//! 6. **Eviction** — requests that exhausted their output budget leave
//!    the batch and release their shard allocations, unblocking
//!    admission.
//!
//! Step times are memoized on the quantized operating point
//! `(batch, context, α, writeback phase)` — and chunk times on a fixed
//! fine context grid, so one request's chunks telescope to exactly its
//! whole-prompt prefill (the conservation property the proptests pin) —
//! so a 10k-request trace costs a few hundred graph simulations instead
//! of tens of thousands while remaining bit-deterministic for a fixed
//! trace and policy.
//!
//! # Quiet windows
//!
//! Most steps of a long decode only move the clock. After a step that
//! decoded, the engine checks whether the next steps are *quiet*: the
//! batch is decoding with nothing prefilling, its composition has not
//! changed since α was selected, the step preempted nothing, and the
//! policy would not be consulted (it never preempts, and the queue is
//! empty or the batch is full and it never sheds). Then nothing can
//! admit, chunk, join, re-select α or complete until the next arrival or
//! the first completion, which comes after the smallest remaining output
//! budget. Such a stretch runs in one call: each step still takes the
//! writeback tick, looks up the same memoized operating point at the
//! batch's growing mean context, and adds the same values to the clock
//! and counters in the same order, and with tracing on it records the
//! same `Emit` events. A window is therefore bit-identical to stepping
//! by construction. Only [`TraceReport::windowed_steps`] shows it, and a
//! property test holds it equal to a one-step-at-a-time reference over
//! every shipped policy, chunk mode and tracing setting. Preempting
//! policies (such as [`PriorityPreempt`]) are consulted every step, so
//! they never open a window.
//!
//! # Files
//!
//! Each serving concern has one file:
//!
//! * `engine.rs` — the per-run state, [`ServeEngine`] with the six stages
//!   of the step above, the quiet window, and sealing a run into its
//!   [`TraceReport`].
//! * `memo.rs` — the step and prefill memo: the operating-point key, the
//!   context quantizer, the chunk-grid prefill times, and the table a
//!   cluster shares within a system-fingerprint group.
//! * `config.rs` — [`ServeConfig`], [`ChunkMode`] and
//!   [`PrefixCacheConfig`], with [`ServeConfig::validate`], the one place
//!   their invariants are checked.
//! * `prefix.rs` — the prefix KV cache: its index and residency ladder,
//!   preemption victims' parked KV, and the cache's per-run counters.
//! * `policy.rs` and `snapshot.rs` — the [`SchedulingPolicy`] trait, the
//!   shipped policies and the read-only [`SchedSnapshot`] they read.

mod config;
pub(crate) mod engine;
pub(crate) mod memo;
pub mod policy;
mod prefix;
mod snapshot;

pub use config::{ChunkMode, PrefixCacheConfig, ServeConfig};
pub use engine::ServeEngine;
pub use policy::{DeadlineEdf, Fifo, PriorityPreempt, SchedDecision, SchedulingPolicy};
pub use snapshot::{InFlightView, QueuedView, SchedSnapshot};

use hilos_llm::{DeploymentId, RequestClass};
use hilos_metrics::{
    class_breakdown, goodput, ClassReport, ClassSample, LatencyHistogram, LatencyStats,
    PrefillBreakdown, PrefixCacheStats,
};

/// Lifecycle record of one completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOutcome {
    /// Request id.
    pub id: u64,
    /// The request's class.
    pub class: RequestClass,
    /// The deployment that served the request to completion
    /// ([`DeploymentId`] `0` outside a cluster). A preempted request that
    /// was re-dispatched across deployments records where it *finished*.
    pub deployment: DeploymentId,
    /// Prompt length in tokens.
    pub prompt_len: u64,
    /// Tokens generated.
    pub output_len: u64,
    /// When the request became visible to admission (seconds).
    pub arrival_s: f64,
    /// When it was first admitted (shard allocation + prefill start).
    pub admitted_s: f64,
    /// When its first output token was produced.
    pub first_token_s: f64,
    /// When its last token was produced (eviction).
    pub finished_s: f64,
    /// The request's own SLO deadline (seconds from arrival).
    pub slo_deadline_s: f64,
    /// How many times the request was preempted and re-admitted.
    pub preemptions: u32,
    /// Prefill tokens executed for this request across every
    /// (re-)admission, including work a preemption later discarded.
    /// Equals `prompt_len` for a never-preempted request — the chunk
    /// conservation the property tests pin.
    pub prefill_tokens: u64,
}

impl RequestOutcome {
    /// Time to first token.
    pub fn ttft(&self) -> f64 {
        self.first_token_s - self.arrival_s
    }

    /// Mean inter-token latency (zero for single-token outputs).
    pub fn itl(&self) -> f64 {
        if self.output_len > 1 {
            (self.finished_s - self.first_token_s) / (self.output_len - 1) as f64
        } else {
            0.0
        }
    }

    /// End-to-end latency (arrival to last token).
    pub fn e2e(&self) -> f64 {
        self.finished_s - self.arrival_s
    }

    /// Whether the request completed within `deadline_s` of arriving.
    pub fn met_deadline(&self, deadline_s: f64) -> bool {
        self.e2e() <= deadline_s
    }

    /// Whether the request met its *own* SLO deadline — what
    /// deadline-aware policies optimize.
    pub fn met_slo(&self) -> bool {
        self.met_deadline(self.slo_deadline_s)
    }
}

/// Lifecycle record of a request dropped by an overload-shedding policy
/// — it never generated anything, and its deadline had provably passed
/// while it queued (the engine refuses any other shed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedOutcome {
    /// Request id.
    pub id: u64,
    /// The request's class.
    pub class: RequestClass,
    /// When the request became visible to admission (seconds).
    pub arrival_s: f64,
    /// When it was dropped.
    pub shed_s: f64,
    /// The SLO deadline (seconds from arrival) that had already expired.
    pub slo_deadline_s: f64,
}

impl ShedOutcome {
    /// How long past its deadline the request had rotted when shed.
    pub fn overdue_s(&self) -> f64 {
        self.shed_s - (self.arrival_s + self.slo_deadline_s)
    }
}

/// FNV-1a over each outcome's identity, lengths and f64-bit-exact
/// lifecycle timestamps — the golden-pin recipe shared by
/// `tests/serving.rs`, `tests/cluster.rs` and the `bench_serving` CI
/// smoke, so the pinned field set cannot drift between them. Any change
/// to the fields hashed here invalidates every pinned constant at once,
/// loudly.
pub fn outcome_lifecycle_fnv(outcomes: &[RequestOutcome]) -> u64 {
    fn fnv1a(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x100000001b3);
        }
    }
    let mut h = 0xcbf29ce484222325u64;
    for o in outcomes {
        fnv1a(&mut h, &o.id.to_le_bytes());
        fnv1a(&mut h, &o.prompt_len.to_le_bytes());
        fnv1a(&mut h, &o.output_len.to_le_bytes());
        fnv1a(&mut h, &o.arrival_s.to_bits().to_le_bytes());
        fnv1a(&mut h, &o.admitted_s.to_bits().to_le_bytes());
        fnv1a(&mut h, &o.first_token_s.to_bits().to_le_bytes());
        fnv1a(&mut h, &o.finished_s.to_bits().to_le_bytes());
    }
    h
}

/// TTFT order statistics over completed outcomes — shared by
/// [`TraceReport`] and the baselines' trace reports so the metric
/// definition cannot drift between them.
pub fn ttft_stats_of(outcomes: &[RequestOutcome]) -> LatencyStats {
    outcomes.iter().map(RequestOutcome::ttft).collect()
}

/// Token goodput over completed outcomes under a deadline. Zero — not
/// NaN — for an empty run: `elapsed_s <= 0.0` is guarded inside
/// [`goodput`], mirroring [`throughput_of`] (pinned by the tests below).
pub fn token_goodput_of(outcomes: &[RequestOutcome], deadline_s: f64, elapsed_s: f64) -> f64 {
    goodput(outcomes.iter().map(|o| (o.met_deadline(deadline_s), o.output_len as f64)), elapsed_s)
}

/// Generated-token throughput (zero for an empty run).
pub fn throughput_of(generated_tokens: u64, elapsed_s: f64) -> f64 {
    if elapsed_s > 0.0 {
        generated_tokens as f64 / elapsed_s
    } else {
        0.0
    }
}

/// Per-class latency/goodput breakdown (SLO-based) over completed
/// outcomes, in [`RequestClass::all`] order for the classes present —
/// shared by [`TraceReport`] and the cluster-level
/// [`ClusterReport`](crate::cluster::ClusterReport) so the class
/// aggregation cannot drift between the two layers.
pub fn class_breakdown_of<'a>(
    outcomes: impl IntoIterator<Item = &'a RequestOutcome>,
) -> Vec<ClassReport> {
    let mut samples: Vec<(RequestClass, ClassSample)> = outcomes
        .into_iter()
        .map(|o| {
            (
                o.class,
                ClassSample {
                    label: o.class.label(),
                    ttft_s: o.ttft(),
                    e2e_s: o.e2e(),
                    met_slo: o.met_slo(),
                    tokens: o.output_len,
                },
            )
        })
        .collect();
    let class_rank = |c: RequestClass| RequestClass::all().iter().position(|&x| x == c);
    samples.sort_by_key(|(c, _)| class_rank(*c));
    class_breakdown(samples.into_iter().map(|(_, s)| s))
}

/// Everything one trace run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// The scheduling policy that produced the run.
    pub policy: String,
    /// Completed requests in completion order.
    pub outcomes: Vec<RequestOutcome>,
    /// Requests whose KV footprint can never be placed (larger than the
    /// placeable array) — dropped at admission before generating
    /// anything. (A preempted request that becomes unplaceable on
    /// re-admission instead completes into `outcomes` with its retained
    /// progress, so `generated_tokens` always sums over `outcomes`.)
    pub rejected: Vec<u64>,
    /// Requests an overload-shedding policy dropped (deadline already
    /// expired in the queue, nothing generated). Empty under the shipped
    /// non-shedding policies. `outcomes + rejected + shed` partition the
    /// trace.
    pub shed: Vec<ShedOutcome>,
    /// Decode steps actually executed (idle gaps between arrivals are
    /// skipped, not counted).
    pub steps: u64,
    /// Of `steps`, those run inside quiet windows: stretches of decode
    /// steps with no policy call, admission, chunk, join, α recompute or
    /// completion, which the engine runs in one call (see the module
    /// docs). A deterministic work counter; no other field depends on it.
    pub windowed_steps: u64,
    /// Simulated wall-clock seconds.
    pub elapsed_s: f64,
    /// Total tokens generated.
    pub generated_tokens: u64,
    /// Largest running batch observed.
    pub peak_batch: u32,
    /// Prefill-finished joins into the running batch.
    pub joins: u64,
    /// Completion evictions from the running batch.
    pub evictions: u64,
    /// Preemptions executed (victim released and re-queued).
    pub preemptions: u64,
    /// How often α was re-selected (batch composition changes).
    pub alpha_recomputes: u64,
    /// Step-weighted mean α.
    pub mean_alpha: f64,
    /// Distinct simulated operating points (step-cache size).
    pub step_cache_entries: usize,
    /// Total bytes that crossed the host interconnect during decode.
    pub host_pcie_bytes: f64,
    /// Total bytes read over the devices' internal paths.
    pub internal_read_bytes: f64,
    /// Payload bytes prefills wrote to the devices (KV + X), including
    /// re-materialization prefills after preemptions.
    pub prefill_payload_bytes: f64,
    /// KV/X bytes the shard ledger placed on each device over the whole
    /// run (admitted requests' full footprints, in device index order) —
    /// the placement skew wear accounting must follow.
    pub kv_placed_bytes: Vec<f64>,
    /// The deadline the run was configured with.
    pub deadline_s: f64,
    /// Where the step-charged time went once prefill runs inside the
    /// serving step: decode, chunk interference with the running batch,
    /// or prefill stall (all-zero chunk fields under the legacy
    /// side-prefill [`ChunkMode::Off`]).
    pub prefill: PrefillBreakdown,
    /// Per-decode-step emission gaps as an exact multiset (execution
    /// order is not kept): the decode time plus whatever prefill-chunk
    /// seconds the step absorbed — the inter-token latency every running
    /// request felt at that step. Steps no chunk touched are counted by
    /// value (a memoized step time, so at most `step_cache_entries`
    /// distinct values); each step with chunk interference is one plain
    /// sample. [`TraceReport::itl_stats`] averages within each request and
    /// hides interference spikes; [`TraceReport::step_itl_stats`] exposes
    /// them.
    pub step_latency_s: LatencyHistogram,
    /// Prefill re-materialization debt left by preemptions: tokens whose
    /// ingested KV was discarded (a decode victim's whole context, a
    /// prefilling victim's executed chunks) — the groundwork for
    /// cost-aware victim selection. With the prefix cache on, demoted
    /// victims do not count here (their KV survives in the ladder).
    pub wasted_prefill_tokens: u64,
    /// Prefix KV-cache activity of this run: probe hit rate, prefill
    /// tokens reuse skipped, and the ladder's demote/recall traffic.
    /// All-zero with the cache off (the default).
    pub prefix: PrefixCacheStats,
    /// The retained lifecycle event stream, oldest first — empty unless
    /// the run was configured with [`ServeConfig::with_tracing`]. The
    /// stream is deterministic for a fixed trace and policy and is
    /// FNV-pinned in CI via [`hilos_trace::events_fnv`].
    pub events: Vec<hilos_trace::Event>,
    /// Events evicted past the configured ring capacity (zero when
    /// `events` holds the whole stream).
    pub events_dropped: u64,
}

impl TraceReport {
    /// TTFT order statistics.
    pub fn ttft_stats(&self) -> LatencyStats {
        ttft_stats_of(&self.outcomes)
    }

    /// Inter-token latency order statistics (per-request *means* — how a
    /// request's whole stream averaged out).
    pub fn itl_stats(&self) -> LatencyStats {
        self.outcomes.iter().map(RequestOutcome::itl).collect()
    }

    /// Per-emission decode-gap order statistics over every executed step
    /// — the tail a live token stream actually feels. Under
    /// [`ChunkMode::Lump`] a whole-prompt prefill lands in one step and
    /// shows up here as a spike; [`ChunkMode::Chunked`] bounds the
    /// per-step interference, which is exactly what this distribution's
    /// tail measures (the chunked-vs-lump CI gate).
    pub fn step_itl_stats(&self) -> LatencyStats {
        self.step_latency_s.stats()
    }

    /// End-to-end latency order statistics.
    pub fn e2e_stats(&self) -> LatencyStats {
        self.outcomes.iter().map(RequestOutcome::e2e).collect()
    }

    /// Generated-token throughput over the run.
    pub fn tokens_per_second(&self) -> f64 {
        throughput_of(self.generated_tokens, self.elapsed_s)
    }

    /// Token goodput: tokens of deadline-meeting requests per second
    /// (under the run's single configured deadline).
    pub fn token_goodput(&self) -> f64 {
        token_goodput_of(&self.outcomes, self.deadline_s, self.elapsed_s)
    }

    /// Token goodput under each request's *own* SLO deadline — the
    /// scheduler-comparison metric (zero for an empty run, guarded
    /// inside [`goodput`]).
    pub fn slo_token_goodput(&self) -> f64 {
        goodput(self.outcomes.iter().map(|o| (o.met_slo(), o.output_len as f64)), self.elapsed_s)
    }

    /// Fraction of completed requests that met their own SLO deadline.
    pub fn slo_hit_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.met_slo()).count() as f64 / self.outcomes.len() as f64
    }

    /// Request goodput: deadline-meeting completions per second.
    pub fn request_goodput(&self) -> f64 {
        goodput(
            self.outcomes.iter().map(|o| (o.met_deadline(self.deadline_s), 1.0)),
            self.elapsed_s,
        )
    }

    /// Fraction of completed requests that met the deadline.
    pub fn deadline_hit_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().filter(|o| o.met_deadline(self.deadline_s)).count() as f64
            / self.outcomes.len() as f64
    }

    /// Per-class latency/goodput breakdown (SLO-based), in
    /// [`RequestClass::all`] order for the classes that completed
    /// requests — who pays the tails under a given policy.
    pub fn class_breakdown(&self) -> Vec<ClassReport> {
        class_breakdown_of(&self.outcomes)
    }

    /// The [`ClassReport`] of one class, if it completed any requests.
    pub fn class_report(&self, class: RequestClass) -> Option<ClassReport> {
        self.class_breakdown().into_iter().find(|r| r.label == class.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(class: RequestClass, arrival_s: f64, finished_s: f64, slo: f64) -> RequestOutcome {
        RequestOutcome {
            id: 0,
            class,
            deployment: DeploymentId::default(),
            prompt_len: 64,
            output_len: 10,
            arrival_s,
            admitted_s: arrival_s,
            first_token_s: arrival_s + 0.5,
            finished_s,
            slo_deadline_s: slo,
            preemptions: 0,
            prefill_tokens: 64,
        }
    }

    #[test]
    fn goodput_guards_empty_runs_with_zero_elapsed() {
        // An empty trace has elapsed_s == 0.0; every goodput flavour must
        // report 0.0, not NaN.
        assert_eq!(token_goodput_of(&[], 10.0, 0.0), 0.0);
        assert_eq!(throughput_of(0, 0.0), 0.0);
        let empty = TraceReport {
            policy: "fifo".into(),
            outcomes: vec![],
            rejected: vec![],
            shed: vec![],
            steps: 0,
            windowed_steps: 0,
            elapsed_s: 0.0,
            generated_tokens: 0,
            peak_batch: 0,
            joins: 0,
            evictions: 0,
            preemptions: 0,
            alpha_recomputes: 0,
            mean_alpha: 0.0,
            step_cache_entries: 0,
            host_pcie_bytes: 0.0,
            internal_read_bytes: 0.0,
            prefill_payload_bytes: 0.0,
            kv_placed_bytes: vec![],
            deadline_s: 120.0,
            prefill: PrefillBreakdown::default(),
            step_latency_s: LatencyHistogram::default(),
            wasted_prefill_tokens: 0,
            prefix: PrefixCacheStats::default(),
            events: vec![],
            events_dropped: 0,
        };
        assert_eq!(empty.token_goodput(), 0.0);
        assert!(!empty.token_goodput().is_nan());
        assert_eq!(empty.slo_token_goodput(), 0.0);
        assert_eq!(empty.request_goodput(), 0.0);
        assert_eq!(empty.tokens_per_second(), 0.0);
        assert_eq!(empty.slo_hit_rate(), 0.0);
        assert!(empty.class_breakdown().is_empty());
    }

    #[test]
    fn slo_metrics_use_per_request_deadlines() {
        let fast = outcome(RequestClass::Short, 0.0, 5.0, 10.0);
        let late = outcome(RequestClass::Long, 0.0, 50.0, 10.0);
        assert!(fast.met_slo());
        assert!(!late.met_slo());
        let report = TraceReport {
            policy: "test".into(),
            outcomes: vec![fast, late],
            rejected: vec![],
            shed: vec![],
            steps: 2,
            windowed_steps: 0,
            elapsed_s: 50.0,
            generated_tokens: 20,
            peak_batch: 2,
            joins: 2,
            evictions: 2,
            preemptions: 0,
            alpha_recomputes: 1,
            mean_alpha: 0.0,
            step_cache_entries: 1,
            host_pcie_bytes: 0.0,
            internal_read_bytes: 0.0,
            prefill_payload_bytes: 0.0,
            kv_placed_bytes: vec![],
            deadline_s: 1000.0,
            prefill: PrefillBreakdown::default(),
            step_latency_s: LatencyHistogram::default(),
            wasted_prefill_tokens: 0,
            prefix: PrefixCacheStats::default(),
            events: vec![],
            events_dropped: 0,
        };
        assert_eq!(report.slo_hit_rate(), 0.5);
        assert!((report.slo_token_goodput() - 10.0 / 50.0).abs() < 1e-12);
        // Global-deadline goodput still counts both.
        assert_eq!(report.deadline_hit_rate(), 1.0);
        let classes = report.class_breakdown();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].label, "Short");
        assert_eq!(classes[0].slo_met, 1);
        assert_eq!(classes[1].label, "Long");
        assert_eq!(classes[1].slo_met, 0);
        assert!(report.class_report(RequestClass::Medium).is_none());
        assert_eq!(report.class_report(RequestClass::Short).unwrap().count, 1);
    }
}
