//! The policy-generic serving engine: executes [`SchedDecision`]s under
//! the ledger/batch invariants and runs the continuous-batching decode
//! loop (see the [module docs](super) for the step anatomy).
//!
//! The engine is a *stepwise core*: [`ServeEngine::advance_once`] runs
//! one serving iteration over a [`RunState`], and
//! [`ServeEngine::advance_quiet`] runs a provably quiet stretch in one
//! call (see the [module docs](super#quiet-windows)). It has no loop of
//! its own. The crate's one serving loop,
//! [`ElasticClusterEngine::run_trace`](crate::cluster::ElasticClusterEngine::run_trace)'s,
//! drives N engines' run states under one global arrival cursor, and
//! [`ServeEngine::run_trace`] is that loop over this engine alone: a
//! one-slot pinned fleet, which routes nothing and never scales.
//!
//! One `advance_once` is six stage methods, named after the steps of the
//! [module docs](super): [`ServeEngine::schedule`],
//! [`ServeEngine::execute_decisions`], [`ServeEngine::ingest_chunks`],
//! [`ServeEngine::join_prefills`], [`ServeEngine::decode`] and
//! [`ServeEngine::emit_and_evict`].
//!
//! This file holds the run state, the engine, its six stages, the quiet
//! window and [`ServeEngine::finish`]. What the stages consult lives
//! beside it: the step/prefill memo in `memo.rs`, the configuration in
//! `config.rs` and the prefix KV cache in `prefix.rs`.

use super::config::{ChunkMode, ServeConfig};
use super::memo::{BitsMap, SharedStepCache};
use super::policy::{Fifo, SchedDecision, SchedulingPolicy};
use super::prefix::{CacheBaseline, PrefixCacheState};
use super::snapshot::{InFlightView, QueuedView, SchedSnapshot};
use super::{RequestOutcome, ShedOutcome, TraceReport};
use crate::cluster::elastic::Fleet;
use crate::cluster::{ColdStartModel, DeploymentLifecycle, ElasticConfig, PinnedFleet, RoundRobin};
use crate::runner::{CoreError, HilosSystem};
use crate::scheduler::{weight_source, WeightSource};
use crate::step::{AlphaSelector, DecodeStepExecutor, StepOutcome};
use crate::writeback::{decision_at, simulated_decision, SpillDecision};
use hilos_llm::{DeploymentId, ModelConfig, Request};
use hilos_metrics::{LatencyHistogram, PrefillBreakdown, PrefixCacheStats};
use hilos_storage::KvShardLedger;
use hilos_trace::{Event, EventKind, EventRing};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::rc::Rc;

/// A queued request: never admitted, or preempted and awaiting
/// re-admission with retained progress.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueEntry {
    pub(crate) req: Request,
    pub(crate) arrival_s: f64,
    /// Tokens generated before a preemption (zero on first admission).
    pub(crate) emitted: u64,
    pub(crate) first_token_s: Option<f64>,
    /// The first admission time, kept across preemptions.
    pub(crate) first_admitted_s: Option<f64>,
    pub(crate) preemptions: u32,
    /// Prefill tokens executed for this request so far, across every
    /// (re-)admission — including chunks a preemption later discarded.
    pub(crate) prefill_tokens: u64,
}

/// A request in flight (admitted; prefilling or decoding).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    req: Request,
    arrival_s: f64,
    admitted_s: f64,
    /// When its prefill finishes and it may join the running batch
    /// (side-prefill [`ChunkMode::Off`] only; infinite under the inline
    /// modes, where the chunk cursor below drives joining).
    join_s: f64,
    first_token_s: Option<f64>,
    emitted: u64,
    preemptions: u32,
    /// Prompt tokens ingested so far this admission (the chunk cursor;
    /// stays zero in [`ChunkMode::Off`], where the prefill is simulated
    /// as one lump on the side).
    prefill_done: u64,
    /// The memoized whole-prompt prefill seconds at the chunk cursor, once
    /// a chunk has ended there: the next chunk's start value, carried so
    /// it is not looked up twice.
    cursor_prefill_s: Option<f64>,
    /// Tokens this admission must ingest before joining: the prompt plus
    /// any generated progress retained across a preemption.
    prefill_total: u64,
    /// The α selected at admission — chunk times use it so one request's
    /// chunks telescope consistently to its whole-prompt prefill.
    admit_alpha: f64,
    /// Lifetime prefill tokens executed (carried across preemptions;
    /// reported on the outcome).
    prefill_charged: u64,
}

impl InFlight {
    /// The request as a [`QueueEntry`]: generated progress, first
    /// timestamps, preemptions and lifetime prefill retained.
    fn entry(&self) -> QueueEntry {
        QueueEntry {
            req: self.req,
            arrival_s: self.arrival_s,
            emitted: self.emitted,
            first_token_s: self.first_token_s,
            first_admitted_s: Some(self.admitted_s),
            preemptions: self.preemptions,
            prefill_tokens: self.prefill_charged,
        }
    }

    /// The queue entry a preempted request re-enters admission as — the
    /// one construction of a victim's [`QueueEntry`], so the preemption
    /// and evacuation paths cannot diverge on what a victim retains:
    /// everything [`InFlight::entry`] keeps, plus one more preemption.
    fn requeued(&self) -> QueueEntry {
        QueueEntry { preemptions: self.preemptions + 1, ..self.entry() }
    }
}

/// What one call to [`ServeEngine::advance_once`] accomplished — the
/// serving loop decides how the global step moves in response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepProgress {
    /// One decode step of the running batch was executed.
    Decoded,
    /// No decode ran this call (prefills still in flight, or everything
    /// drained mid-step) — the defensive tick.
    NoDecode,
    /// The policy held queued requests with nothing in flight and no
    /// admission executed: the loop cannot make progress on its own.
    Stalled,
}

/// The mutable state of one serving run, separated from the engine so the
/// serving loop can hold N of them and advance them in lockstep. All
/// per-run counters live here; the engine keeps only the cross-run
/// caches (the step/prefill memo, the prefix cache) and the immutable
/// configuration.
#[derive(Debug, Default)]
pub(crate) struct RunState {
    pub(crate) queue: VecDeque<QueueEntry>,
    prefilling: Vec<InFlight>,
    running: Vec<InFlight>,
    outcomes: Vec<RequestOutcome>,
    rejected: Vec<u64>,
    shed: Vec<ShedOutcome>,
    pub(crate) clock: f64,
    /// A lazily-run quiet window, `(first owed step, last quiet step)`
    /// on the global step axis: steps [`ServeEngine::quiet_steps_ahead`]
    /// proved quiet that the serving loop defers until the window ends
    /// or something touches the slot. Owned by the loop; `None` while
    /// every step has run.
    pub(crate) window: Option<(u64, u64)>,
    decode_steps: u64,
    /// Decode steps run inside quiet windows (a subset of
    /// `decode_steps`).
    windowed_steps: u64,
    alpha: f64,
    composition_changed: bool,
    joins: u64,
    evictions: u64,
    preemptions: u64,
    alpha_recomputes: u64,
    generated: u64,
    peak_batch: u32,
    alpha_steps_sum: f64,
    host_bytes: f64,
    internal_bytes: f64,
    prefill_payload: f64,
    /// Sum of executed decode-step seconds (the denominator of the
    /// chunk-interference ratio).
    decode_seconds: f64,
    /// Prefill-chunk seconds charged to steps that also decoded.
    prefill_interference_s: f64,
    /// Prefill-chunk seconds charged to steps with nothing decoding.
    prefill_stall_s: f64,
    prefill_chunks: u64,
    prefill_chunk_tokens: u64,
    /// Per-decode-step emission gaps (chunk seconds charged to the step
    /// plus the decode time): the inter-token latency every running
    /// request experienced that step. A step no chunk touched took a
    /// memoized step time, one of few distinct values, so it is counted
    /// by bit pattern; a step with interference is kept as a sample, as
    /// interfered gaps rarely repeat (161,156 distinct gaps in e2ebench
    /// serve-prefix's 415,151 steps), so a map of them costs more memory.
    step_gap_counts: BitsMap<u64, u64>,
    step_gap_samples: Vec<f64>,
    /// Prefill re-materialization debt left by preemptions: the victim's
    /// already-ingested tokens (context held by a decode victim, executed
    /// chunks of a prefilling victim).
    pub(super) wasted_prefill_tokens: u64,
    /// Event-sourced prefix-cache accounting (victim demotions/recalls,
    /// recall seconds charged to the clock); the index/ladder deltas are
    /// folded in at [`ServeEngine::finish`]. All-zero with the cache off.
    pub(super) prefix: PrefixCacheStats,
    /// Cache counter values at run start (the cache outlives runs).
    cache_base: CacheBaseline,
    kv_placed: Vec<f64>,
    /// Memoized snapshot footprint estimates (see the snapshot build).
    /// A request's entry leaves when it completes, is rejected or is
    /// shed here; it stays when the request migrates away, since the
    /// request can come back.
    footprint_estimates: BitsMap<u64, u64>,
    /// Ids preempted by the most recent [`ServeEngine::advance_once`]
    /// call, in preemption order. Victims are re-queued locally (tail of
    /// `queue`) exactly as before the cluster layer existed; a fleet of
    /// more than one slot drains them by id and re-dispatches them.
    pub(crate) just_preempted: Vec<u64>,
    /// Where lifecycle events go: an [`EventRing`] when the run was
    /// configured with [`ServeConfig::with_tracing`], nowhere otherwise.
    trace: Option<EventRing>,
}

impl RunState {
    /// Records one lifecycle event at the deployment's current clock.
    /// Observational only — never touches clocks or accounting, so the
    /// tracing-off run is bit-identical to the uninstrumented engine.
    #[inline]
    pub(crate) fn emit(&mut self, deployment: DeploymentId, request: u64, kind: EventKind) {
        if let Some(ring) = &mut self.trace {
            ring.record(Event { t_s: self.clock, deployment: deployment.0, request, kind });
        }
    }

    /// Sizes the outcome list for `n` completions up front, so a run
    /// that knows its bound does not grow (and strand) it by doubling.
    pub(crate) fn reserve_outcomes(&mut self, n: usize) {
        self.outcomes.reserve_exact(n);
    }

    /// Whether the run still has anything to serve.
    pub(crate) fn has_work(&self) -> bool {
        !self.queue.is_empty() || !self.prefilling.is_empty() || !self.running.is_empty()
    }

    /// Requests waiting in the admission queue.
    pub(crate) fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// In-flight requests whose prefill is still running.
    pub(crate) fn prefilling_len(&self) -> usize {
        self.prefilling.len()
    }

    /// In-flight requests currently decoding.
    pub(crate) fn decoding_len(&self) -> usize {
        self.running.len()
    }

    /// Re-queues a preemption victim with its retained progress and
    /// marks it for potential cross-deployment re-dispatch. The caller
    /// has already taken it off the deployment
    /// ([`ServeEngine::preempt`]).
    fn requeue_victim(&mut self, r: &InFlight) {
        self.queue.push_back(r.requeued());
        self.just_preempted.push(r.req.id);
    }

    /// Books one executed decode step of the running batch: the clock,
    /// the step's emission gap (its decode time plus the prefill-chunk
    /// seconds that interfered with it) and the step accumulators.
    fn book_step(&mut self, step: StepOutcome, interference_s: f64) {
        self.clock += step.seconds;
        self.decode_seconds += step.seconds;
        let gap = interference_s + step.seconds;
        if interference_s == 0.0 {
            *self.step_gap_counts.entry(gap.to_bits()).or_insert(0) += 1;
        } else {
            self.step_gap_samples.push(gap);
        }
        self.decode_steps += 1;
        self.generated += self.running.len() as u64;
        self.alpha_steps_sum += self.alpha;
        self.host_bytes += step.host_pcie_bytes;
        self.internal_bytes += step.internal_read_bytes;
    }

    /// Books `entry` finished at the current clock with the tokens it
    /// generated — the one construction of a [`RequestOutcome`].
    fn complete(&mut self, deployment: DeploymentId, entry: QueueEntry) {
        self.outcomes.push(RequestOutcome {
            id: entry.req.id,
            class: entry.req.class,
            deployment,
            prompt_len: entry.req.prompt_len,
            output_len: entry.emitted,
            arrival_s: entry.arrival_s,
            admitted_s: entry.first_admitted_s.expect("a finished request was admitted"),
            first_token_s: entry.first_token_s.expect("a finished request emitted tokens"),
            finished_s: self.clock,
            slo_deadline_s: entry.req.slo.deadline_s(),
            preemptions: entry.preemptions,
            prefill_tokens: entry.prefill_tokens,
        });
        let kind = EventKind::Completed { output_tokens: entry.emitted };
        self.emit(deployment, entry.req.id, kind);
    }

    /// Moves finished prefills into the running batch — the tail both
    /// join rules share.
    fn join(&mut self, deployment: DeploymentId, ready: Vec<InFlight>) {
        self.joins += ready.len() as u64;
        for p in &ready {
            self.emit(deployment, p.req.id, EventKind::Joined);
        }
        self.running.extend(ready);
        self.composition_changed = true;
    }

    /// Removes the entries named by `just_preempted` from the queue (they
    /// are its tail, in order) and returns them for cross-deployment
    /// re-dispatch. Clears the marker list.
    pub(crate) fn drain_just_preempted(&mut self) -> Vec<QueueEntry> {
        let mut moved = Vec::with_capacity(self.just_preempted.len());
        for id in std::mem::take(&mut self.just_preempted) {
            if let Some(pos) = self.queue.iter().position(|q| q.req.id == id) {
                moved.push(self.queue.remove(pos).expect("position came from a live scan"));
            }
        }
        moved
    }
}

/// The continuous-batching serving engine over one HILOS deployment.
#[derive(Debug)]
pub struct ServeEngine {
    system: HilosSystem,
    pub(super) config: ServeConfig,
    pub(super) exec: DecodeStepExecutor,
    alpha_sel: AlphaSelector,
    ledger: KvShardLedger,
    policy: Box<dyn SchedulingPolicy>,
    /// The model, cloned out of the system once so the hot loop can hold
    /// `&model` across `&mut self` memoization calls.
    model: ModelConfig,
    /// Which deployment this engine is, stamped onto every outcome.
    pub(super) deployment: DeploymentId,
    /// Placeable bytes of the empty array (after weight reservations) —
    /// the bound beyond which a request can never be admitted.
    max_placeable: u64,
    /// The step/prefill memo: this engine's own until a cluster hands it
    /// its fingerprint group's shared table.
    pub(super) memo: Rc<RefCell<SharedStepCache>>,
    /// Prefix KV cache over the tiered residency ladder (`None` = off).
    pub(super) cache: Option<PrefixCacheState>,
}

impl ServeEngine {
    /// Builds the serving engine with the default [`Fifo`] policy.
    ///
    /// # Errors
    ///
    /// [`CoreError::Platform`] for an out-of-range degraded device;
    /// capacity errors from fitting the weights.
    pub fn new(system: HilosSystem, config: ServeConfig) -> Result<Self, CoreError> {
        ServeEngine::with_policy(system, config, Box::new(Fifo))
    }

    /// Builds the serving engine around the given scheduling policy: one
    /// simulation world for its step graphs, and — read from the system
    /// spec and its straggler list, not from that world — the α selector
    /// at the spec's bandwidth operating point and the shard ledger (with
    /// storage-resident weights reserved evenly, as `weight_source`
    /// dictates for >100B models).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidServeConfig`] if `config` fails
    /// [`ServeConfig::validate`]; [`CoreError::InvalidJob`]
    /// (`sim_layers`) if the system simulates zero layers per step;
    /// [`CoreError::Platform`] for an out-of-range degraded device;
    /// capacity errors from fitting the weights.
    pub fn with_policy(
        system: HilosSystem,
        config: ServeConfig,
        policy: Box<dyn SchedulingPolicy>,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        let exec = DecodeStepExecutor::new(&system)?;
        let alpha_sel = system.alpha_selector();
        let mut ledger = system.kv_ledger()?;
        let model = system.model().clone();
        if weight_source(system.spec(), &model) == WeightSource::Storage {
            ledger.reserve_evenly(model.weight_bytes()).map_err(|_| {
                CoreError::DeviceCapacityExceeded {
                    needed: model.weight_bytes(),
                    available: ledger.placeable_free(),
                }
            })?;
        }
        let max_placeable = ledger.placeable_free();
        let cache =
            config.prefix_cache.map(|pc| PrefixCacheState::new(&pc, &model, ledger.device_count()));
        Ok(ServeEngine {
            system,
            config,
            exec,
            alpha_sel,
            ledger,
            policy,
            model,
            deployment: DeploymentId::default(),
            max_placeable,
            memo: Rc::default(),
            cache,
        })
    }

    /// The per-device shard ledger (admission state).
    pub fn ledger(&self) -> &KvShardLedger {
        &self.ledger
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The deployment's underlying [`HilosSystem`] (spec, model,
    /// configuration) — the cost and cold-start models read it.
    pub fn system(&self) -> &HilosSystem {
        &self.system
    }

    /// Which deployment this engine is ([`DeploymentId`] `0` outside a
    /// cluster). Stamped onto every [`RequestOutcome`].
    pub fn deployment(&self) -> DeploymentId {
        self.deployment
    }

    /// Assigns the engine its cluster slot (outcomes record it).
    pub(crate) fn set_deployment(&mut self, id: DeploymentId) {
        self.deployment = id;
    }

    /// FNV-1a over everything the step/prefill memo values depend on:
    /// the full system (spec, degradations, model, config, sim layers).
    /// Two deployments with equal
    /// fingerprints compute bit-identical values for every memo key, so
    /// they may share one [`SharedStepCache`].
    pub(crate) fn system_fingerprint(&self) -> u64 {
        let desc = format!("{:?}", self.system);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in desc.into_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Installs the fingerprint-group shared memo tables, seeding them
    /// with anything this engine already computed. Only a cluster
    /// constructor calls this, and only across deployments whose
    /// [`ServeEngine::system_fingerprint`] match; `shared` is a table the
    /// constructor built, never the one this engine holds.
    pub(crate) fn set_shared_cache(&mut self, shared: Rc<RefCell<SharedStepCache>>) {
        shared.borrow_mut().absorb(&self.memo.borrow());
        self.memo = shared;
    }

    /// KV/X bytes a request owns at full generation length under `alpha`.
    fn request_footprint(&self, req: &Request, alpha: f64) -> u64 {
        (self.model.cache_bytes_per_token(alpha) * req.total_tokens() as f64) as u64
    }

    /// A fresh run state sized for this deployment.
    pub(crate) fn new_run_state(&self) -> RunState {
        RunState {
            composition_changed: true,
            cache_base: self.cache_baseline(),
            kv_placed: vec![0.0; self.ledger.device_count()],
            trace: self.config.trace_events.map(EventRing::new),
            ..RunState::default()
        }
    }

    /// Enqueues an arriving request at the deployment's current clock.
    pub(crate) fn enqueue_arrival(&self, st: &mut RunState, req: Request) {
        st.emit(self.deployment, req.id, EventKind::Arrived { prompt_tokens: req.prompt_len });
        st.queue.push_back(QueueEntry {
            req,
            arrival_s: st.clock,
            emitted: 0,
            first_token_s: None,
            first_admitted_s: None,
            preemptions: 0,
            prefill_tokens: 0,
        });
    }

    /// Re-queues a preempted entry (possibly from another deployment)
    /// with its retained progress and timestamps. Cross-deployment
    /// callers must first re-base the entry's timestamps into *this*
    /// deployment's clock domain (the cluster router does) — deployment
    /// clocks are independent busy-time axes.
    pub(crate) fn requeue(&self, st: &mut RunState, entry: QueueEntry) {
        st.queue.push_back(entry);
    }

    /// Drain hook (queue half): removes *every* queued request for
    /// re-dispatch to another deployment. Parked demoted KV of the
    /// evacuees stays behind by construction — it is dropped at the
    /// source (and booked as wasted re-materialization debt) exactly as
    /// the cross-deployment preemption path does.
    pub(crate) fn evacuate_queued(&mut self, st: &mut RunState) -> Vec<QueueEntry> {
        let drained: Vec<QueueEntry> = st.queue.drain(..).collect();
        for e in &drained {
            self.forget_demoted(st, e.req.id);
        }
        drained
    }

    /// Drain hook (pause/evacuate half): removes up to `max` in-flight
    /// requests — prefilling first (only ingested chunks are lost), then
    /// decoding, oldest first — and returns them as [`QueueEntry`]s with
    /// their generated progress retained, for re-dispatch to another
    /// deployment. Each evacuation is a [`ServeEngine::preempt`] that
    /// cannot park: the victim's already-ingested KV cannot follow it off
    /// the deployment, so the tokens are booked as wasted
    /// re-materialization debt (the target re-runs prefill over
    /// `prompt + progress`, exactly like a cross-deployment preemption
    /// re-dispatch).
    ///
    /// The cap makes draining *stepwise*: a draining deployment keeps
    /// serving what it still holds while the cluster moves `max` requests
    /// per step, rather than dumping its whole batch at once.
    pub(crate) fn evacuate_in_flight(&mut self, st: &mut RunState, max: usize) -> Vec<QueueEntry> {
        let inline = self.config.chunk_mode.is_inline();
        let from_prefilling = max.min(st.prefilling.len());
        let from_running = (max - from_prefilling).min(st.running.len());
        // An inline (chunked) prefill has ingested `prefill_done` tokens;
        // a side-prefill charged its whole context at admission — either
        // way the work is lost with the shards.
        let victims: Vec<(InFlight, u64)> = st
            .prefilling
            .drain(..from_prefilling)
            .map(|p| (p, if inline { p.prefill_done } else { p.prefill_total }))
            .chain(st.running.drain(..from_running).map(|r| (r, r.req.prompt_len + r.emitted)))
            .collect();
        st.composition_changed |= from_running > 0;
        victims
            .into_iter()
            .map(|(v, tokens)| {
                self.preempt(st, &v, tokens, false);
                v.requeued()
            })
            .collect()
    }

    /// Takes a preempted request off the deployment — the one preemption
    /// path behind both the policy's `Preempt` decisions and drain
    /// evacuations: releases its shard allocation, counts the preemption
    /// and emits `Preempted`, then either parks its `tokens` of ingested
    /// KV down the residency ladder (`park`, see
    /// [`ServeEngine::demote_victim`]) or drops its prefix pin; whatever
    /// is not parked is booked as wasted re-materialization debt. The
    /// caller has removed `r` from the batch and re-queues or migrates
    /// it.
    fn preempt(&mut self, st: &mut RunState, r: &InFlight, tokens: u64, park: bool) {
        self.ledger.release(r.req.id).expect("an in-flight request holds its allocation");
        st.preemptions += 1;
        st.emit(self.deployment, r.req.id, EventKind::Preempted { emitted: r.emitted });
        let parked = if park {
            self.demote_victim(st, r.req.id, tokens)
        } else {
            self.release_prefix_hold(r.req.id);
            false
        };
        if !parked {
            st.wasted_prefill_tokens += tokens;
        }
    }

    /// Drops the queued request at `pos`, which can never be placed on
    /// this deployment. A preempted victim carries generated tokens, so
    /// it completes with its retained progress instead of vanishing into
    /// `rejected` (the generated-token accounting must keep summing over
    /// outcomes).
    fn drop_unplaceable(&mut self, st: &mut RunState, pos: usize) {
        let entry = st.queue.remove(pos).expect("position came from a live scan");
        self.forget_demoted(st, entry.req.id);
        st.footprint_estimates.remove(&entry.req.id);
        if entry.emitted == 0 {
            st.rejected.push(entry.req.id);
            st.emit(self.deployment, entry.req.id, EventKind::Rejected);
            return;
        }
        st.complete(self.deployment, entry);
    }

    /// Runs one serving iteration over `st` — everything between two
    /// visits of the arrival cursor, as the six stages of the
    /// [module docs](super). Advancing the cursor (and feeding arrivals)
    /// is the serving loop's job.
    pub(crate) fn advance_once(&mut self, st: &mut RunState) -> Result<StepProgress, CoreError> {
        st.just_preempted.clear();
        let decisions = self.schedule(st);
        let queue_moved = self.execute_decisions(st, decisions)?;
        if st.running.is_empty() && st.prefilling.is_empty() {
            if st.queue.is_empty() {
                // Everything drained mid-step (e.g. the whole queue was
                // rejected as unplaceable): nothing left to decode.
                return Ok(StepProgress::NoDecode);
            }
            if !queue_moved {
                // A policy that holds everything while nothing is in
                // flight can never make progress by itself — hand the
                // stall to the serving loop (which feeds the next arrival, or
                // fails loudly once the trace is exhausted).
                return Ok(StepProgress::Stalled);
            }
        }
        let interference_s = self.ingest_chunks(st)?;
        self.join_prefills(st);
        if st.running.is_empty() {
            // Prefills still in flight but none ready — chunk modes keep
            // ingesting next call; the side-prefill path can only get
            // here before its clock fast-forward. Defensive tick.
            return Ok(StepProgress::NoDecode);
        }
        self.decode(st, interference_s)?;
        self.emit_and_evict(st, interference_s);
        Ok(StepProgress::Decoded)
    }

    /// Whether the in-flight requests, decoding and prefilling, fill the
    /// admission cap.
    fn batch_full(&self, st: &RunState) -> bool {
        st.running.len() + st.prefilling.len() >= self.config.max_batch as usize
    }

    /// Whether the policy provably returns no decision this step, so
    /// [`ServeEngine::schedule`] skips it: the queue is empty (no policy
    /// is consulted on one — see [`SchedulingPolicy::schedule`]), or the
    /// batch is full and the policy can neither preempt nor shed.
    fn policy_idle(&self, queue_empty: bool, batch_full: bool) -> bool {
        queue_empty || (batch_full && !self.policy.may_preempt() && !self.policy.may_shed())
    }

    /// Stage 2a, scheduling: builds the [`SchedSnapshot`] and asks the
    /// policy for this step's decisions.
    ///
    /// A step on which the policy provably has nothing to say skips the
    /// snapshot build entirely — it is O(queue), the dominant cost on a
    /// backlogged trace. That is an empty queue (nothing to admit or
    /// shed, and no queued head to preempt for), or a full batch under a
    /// policy that can neither preempt nor shed. A preempting policy
    /// ([`SchedulingPolicy::may_preempt`]) sees every step with a queued
    /// request, and so does a shedding one
    /// ([`SchedulingPolicy::may_shed`]) — a full batch is exactly when
    /// preemption and shedding matter.
    fn schedule(&mut self, st: &mut RunState) -> Vec<SchedDecision> {
        if self.policy_idle(st.queue.is_empty(), self.batch_full(st)) {
            return Vec::new();
        }
        let in_flight_len = (st.running.len() + st.prefilling.len()) as u32;
        // The policy may bound how much of the backlog its snapshot
        // needs ([`SchedulingPolicy::queue_horizon`]); the view build
        // is O(horizon) instead of O(queue).
        let free_slots = (self.config.max_batch as usize).saturating_sub(in_flight_len as usize);
        let horizon =
            self.policy.queue_horizon(free_slots).unwrap_or(usize::MAX).min(st.queue.len());
        let held = |id: u64| self.ledger.held_bytes(id).unwrap_or(0);
        let view_of = |r: &InFlight, decoding: bool| InFlightView {
            id: r.req.id,
            priority: r.req.slo.priority,
            emitted: r.emitted,
            output_budget: r.req.output_budget,
            decoding,
            held_bytes: held(r.req.id),
        };
        let mut queue_views: Vec<QueuedView> = Vec::with_capacity(horizon);
        let footprint_estimates = &mut st.footprint_estimates;
        for q in st.queue.iter().take(horizon) {
            // The snapshot's footprint is an *estimate* (the engine
            // re-derives the exact value at admission), so it is
            // memoized per request rather than re-derived for the
            // whole backlog on every step — α drifts with batch
            // composition, the stored estimate does not.
            let footprint_bytes = match footprint_estimates.get(&q.req.id) {
                Some(&f) => f,
                None => {
                    let admit_alpha = self.alpha_sel.select(
                        &self.model,
                        in_flight_len + 1,
                        q.req.prompt_len.max(1),
                    );
                    let f = self.request_footprint(&q.req, admit_alpha);
                    footprint_estimates.insert(q.req.id, f);
                    f
                }
            };
            queue_views.push(QueuedView {
                id: q.req.id,
                priority: q.req.slo.priority,
                arrival_s: q.arrival_s,
                deadline_s: q.arrival_s + q.req.slo.deadline_s(),
                prompt_len: q.req.prompt_len,
                output_budget: q.req.output_budget,
                emitted: q.emitted,
                footprint_bytes,
            });
        }
        let flight_views: Vec<InFlightView> = st
            .running
            .iter()
            .map(|r| view_of(r, true))
            .chain(st.prefilling.iter().map(|p| view_of(p, false)))
            .collect();
        let snapshot = SchedSnapshot {
            clock_s: st.clock,
            max_batch: self.config.max_batch,
            queue: &queue_views,
            in_flight: &flight_views,
            placeable_free: self.ledger.placeable_free(),
        };
        self.policy.schedule(&snapshot)
    }

    /// Stage 2b, executing decisions: preempts, sheds and admits in the
    /// policy's order under the batch-cap and shard-ledger invariants.
    /// Returns whether the queue moved — an admission or a shed executed
    /// (the serving loop's stall test).
    fn execute_decisions(
        &mut self,
        st: &mut RunState,
        decisions: Vec<SchedDecision>,
    ) -> Result<bool, CoreError> {
        let inline = self.config.chunk_mode.is_inline();
        let mut queue_moved = false;
        for d in decisions {
            match d {
                SchedDecision::Preempt { victim } => {
                    // Decoding requests are always preemptable; under the
                    // inline chunk modes a *prefilling* victim is too —
                    // and cheap: only its executed chunks are discarded,
                    // no decode progress is lost. Stale or invalid ids
                    // are ignored.
                    let (r, tokens) =
                        if let Some(pos) = st.running.iter().position(|r| r.req.id == victim) {
                            st.composition_changed = true;
                            let r = st.running.remove(pos);
                            (r, r.req.prompt_len + r.emitted)
                        } else if let Some(pos) =
                            st.prefilling.iter().position(|p| inline && p.req.id == victim)
                        {
                            let p = st.prefilling.remove(pos);
                            (p, p.prefill_done)
                        } else {
                            continue;
                        };
                    self.preempt(st, &r, tokens, true);
                    st.requeue_victim(&r);
                }
                SchedDecision::Shed { request } => {
                    let Some(pos) = st.queue.iter().position(|q| q.req.id == request) else {
                        continue;
                    };
                    // Only provably-hopeless, progress-free requests may
                    // be dropped: the deadline must already have passed
                    // on this deployment's clock, and a preempted victim
                    // carrying generated tokens completes through the
                    // admission path instead (its progress must not
                    // vanish). Anything else is ignored — a policy
                    // cannot shed viable work.
                    let q = &st.queue[pos];
                    if q.emitted > 0 || q.arrival_s + q.req.slo.deadline_s() > st.clock {
                        continue;
                    }
                    let entry = st.queue.remove(pos).expect("position came from a live scan");
                    self.forget_demoted(st, entry.req.id);
                    st.footprint_estimates.remove(&entry.req.id);
                    st.shed.push(ShedOutcome {
                        id: entry.req.id,
                        class: entry.req.class,
                        arrival_s: entry.arrival_s,
                        shed_s: st.clock,
                        slo_deadline_s: entry.req.slo.deadline_s(),
                    });
                    queue_moved = true;
                    st.emit(self.deployment, entry.req.id, EventKind::Shed);
                }
                SchedDecision::Admit { request } => match self.admit(st, request)? {
                    ControlFlow::Continue(admitted) => queue_moved |= admitted,
                    ControlFlow::Break(()) => break,
                },
            }
        }
        Ok(queue_moved)
    }

    /// Executes one admission: sizes the request at the α of the
    /// composition it would join, places it on the shard ledger, reuses
    /// cached KV and starts its prefill. `Continue(true)` admitted it;
    /// `Continue(false)` skipped a stale id or dropped an unplaceable
    /// request; `Break` abandons the rest of the step's decisions (full
    /// batch, or a head-of-line wait on the ledger).
    fn admit(
        &mut self,
        st: &mut RunState,
        request: u64,
    ) -> Result<ControlFlow<(), bool>, CoreError> {
        if self.batch_full(st) {
            return Ok(ControlFlow::Break(()));
        }
        let Some(pos) = st.queue.iter().position(|q| q.req.id == request) else {
            return Ok(ControlFlow::Continue(false));
        };
        let entry = st.queue[pos];
        let inline = self.config.chunk_mode.is_inline();
        // α for the composition this request would join.
        let admit_alpha = self.alpha_sel.select(
            &self.model,
            (st.running.len() + st.prefilling.len() + 1) as u32,
            entry.req.prompt_len.max(1),
        );
        let footprint = self.request_footprint(&entry.req, admit_alpha);
        if footprint > self.max_placeable {
            self.drop_unplaceable(st, pos);
            return Ok(ControlFlow::Continue(false));
        }
        // A failed allocation changes nothing, so the live count read
        // before it decides the failure.
        let live = self.ledger.live_requests();
        match self.ledger.allocate(entry.req.id, footprint) {
            Ok(placed) => {
                for (acc, &b) in st.kv_placed.iter_mut().zip(placed) {
                    *acc += b as f64;
                }
            }
            // Nothing live and still unplaceable (e.g. a stripe member
            // filled by static reservations): the request can never be
            // admitted.
            Err(_) if live == 0 => {
                self.drop_unplaceable(st, pos);
                return Ok(ControlFlow::Continue(false));
            }
            // Head-of-line wait: evictions will free space.
            Err(_) => return Ok(ControlFlow::Break(())),
        }
        st.queue.remove(pos);
        // A re-admitted preemption victim re-materializes the KV of its
        // generated progress too.
        let pf_ctx = entry.req.prompt_len + entry.emitted;
        // Prefix-cache probe: recall a demoted victim's parked KV, or a
        // published prefix hit, and start the chunk cursor past the
        // reused tokens. Both legs are inert with the cache off
        // (`reused == 0`, `recall_s == 0`), keeping the golden-pinned
        // path untouched.
        let (reused, recall_s) = self.reuse_cached_kv(st, &entry, pf_ctx);
        // Stamped before the recall charge lands on the clock: the
        // admission instant is when the decision was made, the recall
        // I/O is accounted by its own event above.
        st.emit(self.deployment, entry.req.id, EventKind::Admitted { reused_tokens: reused });
        if recall_s > 0.0 {
            // Recall I/O is critical-path: it delays this step's clock
            // (and thus the hit's TTFT) just as the paper's recovery
            // reads do.
            st.clock += recall_s;
            st.prefix.recall_seconds += recall_s;
        }
        // Side-prefill (ChunkMode::Off) simulates the whole prefill now
        // and joins on the clock; the inline modes leave joining to the
        // chunk cursor.
        let join_s = if inline {
            f64::INFINITY
        } else {
            // A cache hit pays only the un-cached suffix; the miss path
            // keeps the adaptive-quantum rounding of `prefill_seconds`
            // bit-identical to the pins.
            let pf = if reused == 0 {
                self.prefill_seconds(pf_ctx, admit_alpha)
            } else {
                self.prefill_chunk_seconds(reused, pf_ctx - reused, admit_alpha, None)
                    .map(|(chunk, _)| chunk)
            };
            match pf {
                Ok(pf) => st.clock + pf,
                Err(e) => {
                    // Don't leak the shard allocation (or the prefix
                    // pin) on a failed prefill simulation — the engine
                    // stays reusable.
                    let _ = self.ledger.release(entry.req.id);
                    self.release_prefix_hold(entry.req.id);
                    return Err(e);
                }
            }
        };
        st.prefill_payload +=
            footprint as f64 * (pf_ctx - reused) as f64 / entry.req.total_tokens() as f64;
        st.prefilling.push(InFlight {
            req: entry.req,
            arrival_s: entry.arrival_s,
            admitted_s: entry.first_admitted_s.unwrap_or(st.clock),
            join_s,
            first_token_s: entry.first_token_s,
            emitted: entry.emitted,
            preemptions: entry.preemptions,
            prefill_done: reused,
            cursor_prefill_s: None,
            prefill_total: pf_ctx,
            admit_alpha,
            // The lump side-prefill executes in full right here; chunks
            // charge as they run — reused tokens are charged to neither
            // (that is the saving).
            prefill_charged: entry.prefill_tokens + if inline { 0 } else { pf_ctx - reused },
        });
        Ok(ControlFlow::Continue(true))
    }

    /// Stage 3, chunked prefill (inline chunk modes only): ingests prompt
    /// chunks under the step token budget. The running batch reserves
    /// one budget token per sequence (decode keeps its cadence — that is
    /// the whole point of chunking); the remainder is spent
    /// front-to-back over the pending prefills, up to one chunk each, and
    /// the time is charged to this step's clock.
    ///
    /// Returns the chunk seconds that interfered with decoding: all of
    /// them when a decode stream was live while they executed (they
    /// inflate the running requests' emission gaps), none when the
    /// pipeline was empty (then they are the joiner's own TTFT, booked
    /// as a stall).
    fn ingest_chunks(&mut self, st: &mut RunState) -> Result<f64, CoreError> {
        if !self.config.chunk_mode.is_inline() || st.prefilling.is_empty() {
            return Ok(0.0);
        }
        let overlapped_decode = !st.running.is_empty();
        let (chunk_len, step_budget) = self.config.chunk_mode.knobs();
        let mut budget = step_budget.saturating_sub(st.running.len() as u64);
        let mut chunk_seconds = 0.0f64;
        for i in 0..st.prefilling.len() {
            if budget == 0 {
                break;
            }
            let p = st.prefilling[i];
            let (id, done) = (p.req.id, p.prefill_done);
            let remaining = p.prefill_total - done;
            if remaining == 0 {
                continue;
            }
            let take = chunk_len.min(remaining).min(budget);
            let (seconds, end_s) =
                self.prefill_chunk_seconds(done, take, p.admit_alpha, p.cursor_prefill_s)?;
            chunk_seconds += seconds;
            st.emit(
                self.deployment,
                id,
                EventKind::PrefillChunk {
                    start: done,
                    tokens: take,
                    seconds,
                    interference: overlapped_decode,
                },
            );
            let p = &mut st.prefilling[i];
            p.prefill_done += take;
            p.prefill_charged += take;
            p.cursor_prefill_s = Some(end_s);
            budget -= take;
            st.prefill_chunks += 1;
            st.prefill_chunk_tokens += take;
        }
        st.clock += chunk_seconds;
        if chunk_seconds > 0.0 {
            if overlapped_decode {
                st.prefill_interference_s += chunk_seconds;
            } else {
                st.prefill_stall_s += chunk_seconds;
            }
        }
        Ok(if overlapped_decode { chunk_seconds } else { 0.0 })
    }

    /// Stage 4, join: finished prefills join the running batch at this
    /// step boundary. Under the inline chunk modes the chunk cursor
    /// decides, and fully-ingested prompts join in admission order (the
    /// order their last chunks executed). Under the side-prefill the
    /// simulated completion clock decides, fast-forwarding to the
    /// earliest join when nothing is decoding, and joiners order by
    /// prefill completion, then id.
    fn join_prefills(&self, st: &mut RunState) {
        let ready = if self.config.chunk_mode.is_inline() {
            if !st.prefilling.iter().any(|p| p.prefill_done >= p.prefill_total) {
                return;
            }
            let (ready, pending): (Vec<InFlight>, Vec<InFlight>) =
                st.prefilling.drain(..).partition(|p| p.prefill_done >= p.prefill_total);
            st.prefilling = pending;
            ready
        } else {
            if st.running.is_empty() && !st.prefilling.is_empty() {
                let earliest = st.prefilling.iter().map(|p| p.join_s).fold(f64::INFINITY, f64::min);
                st.clock = st.clock.max(earliest);
            }
            let clock = st.clock;
            let mut ready: Vec<InFlight> =
                st.prefilling.iter().copied().filter(|p| p.join_s <= clock).collect();
            if ready.is_empty() {
                return;
            }
            st.prefilling.retain(|p| p.join_s > clock);
            ready.sort_by(|a, b| a.join_s.total_cmp(&b.join_s).then(a.req.id.cmp(&b.req.id)));
            ready
        };
        st.join(self.deployment, ready);
    }

    /// Stage 5, decode: one step of the running batch at its mean
    /// context, α re-selected on a composition change. The step's
    /// emission gap is its decode time plus the chunk seconds that
    /// interfered with it.
    fn decode(&mut self, st: &mut RunState, interference_s: f64) -> Result<(), CoreError> {
        let batch = st.running.len() as u32;
        st.peak_batch = st.peak_batch.max(batch);
        let total_ctx: u64 = st.running.iter().map(|r| r.req.context_at(r.emitted)).sum();
        let mean_ctx = (total_ctx / batch as u64).max(1);
        if st.composition_changed {
            st.alpha = self.alpha_sel.select(&self.model, batch, mean_ctx);
            st.alpha_recomputes += 1;
            st.composition_changed = false;
        }
        let decision = self.spill_decision(st);
        let outcome = self.decode_step(batch, self.quantize(mean_ctx), st.alpha, decision)?;
        st.book_step(outcome, interference_s);
        Ok(())
    }

    /// The next decode step's writeback decision, a function of the
    /// decode steps the run has booked.
    fn spill_decision(&self, st: &RunState) -> SpillDecision {
        decision_at(self.system.config(), st.decode_steps)
    }

    /// Stage 6, emission and eviction: every running request emits the
    /// step's token; those that exhausted their output budget leave the
    /// batch, release their shard allocations and publish their prefix.
    fn emit_and_evict(&mut self, st: &mut RunState, interference_s: f64) {
        // The batch leaves the state while it is filtered in place, so
        // the per-request hooks below can borrow the rest of it.
        let mut running = std::mem::take(&mut st.running);
        running.retain_mut(|r| {
            r.emitted += 1;
            if r.first_token_s.is_none() {
                r.first_token_s = Some(st.clock);
            }
            st.emit(
                self.deployment,
                r.req.id,
                EventKind::Emit { index: r.emitted - 1, interference_s },
            );
            if r.emitted < r.req.output_budget {
                return true;
            }
            self.ledger.release(r.req.id).expect("running request holds allocation");
            // A finished request's prefix KV is worth keeping: release
            // its read pin and publish the prefix (and the session's
            // full context, if keyed) into the ladder for later arrivals
            // to reuse.
            self.publish_finished(&r.req, r.emitted);
            st.footprint_estimates.remove(&r.req.id);
            st.evictions += 1;
            st.complete(self.deployment, r.entry());
            st.composition_changed = true;
            false
        });
        st.running = running;
    }

    /// How many of the next serving iterations are provably *quiet*:
    /// iterations in which [`ServeEngine::advance_once`] would only
    /// ingest the same prefill chunks, decode and emit — no policy call,
    /// admission, join, α recompute or completion. Read it after a step
    /// that decoded; 0 means the next iteration must run in full.
    ///
    /// The batch must be decoding, its composition unchanged since α was
    /// selected, nothing preempted this step, and
    /// [`ServeEngine::schedule`] must skip the policy: an empty queue
    /// under any policy, or a full batch (decoding plus prefilling) under
    /// a policy that can neither preempt nor shed. All of that holds until
    /// the next arrival, the first join or the first completion. The
    /// window is the smallest remaining output budget minus one (the
    /// completing step runs in full), bounded by
    /// [`ServeEngine::steps_before_join`] while a prefill is in flight.
    /// The serving loop cuts it short at the next arrival or anything
    /// else that touches the slot.
    pub(crate) fn quiet_steps_ahead(&self, st: &RunState) -> u64 {
        let quiet = !st.running.is_empty()
            && !st.composition_changed
            && st.just_preempted.is_empty()
            && self.policy_idle(st.queue.is_empty(), self.batch_full(st));
        if !quiet {
            return 0;
        }
        let decode_bound =
            st.running.iter().map(|r| r.req.output_budget - r.emitted).min().map_or(0, |m| m - 1);
        decode_bound.min(self.steps_before_join(st))
    }

    /// How many of the next iterations [`ServeEngine::ingest_chunks`]
    /// runs with no prefill completing, so none joins: unbounded with
    /// nothing prefilling, and 0 under [`ChunkMode::Off`] (its prefills
    /// join on the clock). Under [`ChunkMode::Chunked`] each prefiller in
    /// admission order takes `min(chunk, budget left)` tokens per step, the
    /// same takes every step until one completes; one whose `remaining`
    /// fits in its take joins next step, and otherwise it ingests for
    /// `(remaining − 1) / take` more steps without completing.
    fn steps_before_join(&self, st: &RunState) -> u64 {
        if st.prefilling.is_empty() {
            return u64::MAX;
        }
        if self.config.chunk_mode == ChunkMode::Off {
            return 0;
        }
        let (chunk_len, step_budget) = self.config.chunk_mode.knobs();
        let mut budget = step_budget.saturating_sub(st.running.len() as u64);
        let mut steps = u64::MAX;
        for p in &st.prefilling {
            let take = chunk_len.min(budget);
            if take == 0 {
                break;
            }
            let remaining = p.prefill_total - p.prefill_done;
            if remaining <= take {
                return 0;
            }
            steps = steps.min((remaining - 1) / take);
            budget -= take;
        }
        steps
    }

    /// Runs `k` quiet iterations (see [`ServeEngine::quiet_steps_ahead`])
    /// in one call. Each step runs [`ServeEngine::ingest_chunks`] itself,
    /// then repeats [`ServeEngine::decode`]'s work in the same order —
    /// writeback tick, the memoized step at the batch's mean context,
    /// then the clock and accumulators with the chunks' interference — so
    /// the state after the window is bit-identical to `k` calls of
    /// [`ServeEngine::advance_once`]. Emission is batched
    /// (`emitted += k`); with tracing on, every step still records its
    /// `PrefillChunk` events, then its `Emit` events in running order.
    ///
    /// Within a window the batch and α are fixed, so a step's memo key
    /// moves only with the solved writeback decision
    /// ([`simulated_decision`]) and the context bucket. A window-local
    /// row with one entry per solved decision (at most three: two middle
    /// phases and the spill) serves repeat keys without the shared memo's
    /// hash; it resets when the bucket moves.
    pub(crate) fn advance_quiet(&mut self, st: &mut RunState, k: u64) -> Result<(), CoreError> {
        st.just_preempted.clear();
        let batch = st.running.len() as u64;
        let total_ctx: u64 = st.running.iter().map(|r| r.req.context_at(r.emitted)).sum();
        let mut row: [Option<(SpillDecision, StepOutcome)>; 3] = [None; 3];
        let mut bucket = 0;
        for i in 0..k {
            let interference_s = self.ingest_chunks(st)?;
            let context = self.quantize(((total_ctx + i * batch) / batch).max(1));
            if context != bucket {
                row.fill(None);
                bucket = context;
            }
            let decision = self.spill_decision(st);
            let solved = simulated_decision(self.system.config(), decision);
            let outcome = match row.iter().flatten().find(|(d, _)| *d == solved) {
                Some(&(_, o)) => o,
                None => {
                    let o = self.decode_step(batch as u32, context, st.alpha, decision)?;
                    let free = row.iter_mut().find(|e| e.is_none()).expect("at most 3 solves");
                    *free = Some((solved, o));
                    o
                }
            };
            st.book_step(outcome, interference_s);
            if let Some(ring) = &mut st.trace {
                for r in &st.running {
                    ring.record(Event {
                        t_s: st.clock,
                        deployment: self.deployment.0,
                        request: r.req.id,
                        kind: EventKind::Emit { index: r.emitted + i, interference_s },
                    });
                }
            }
        }
        for r in &mut st.running {
            r.emitted += k;
        }
        st.windowed_steps += k;
        Ok(())
    }

    /// Seals a finished run state into its [`TraceReport`].
    pub(crate) fn finish(&self, st: RunState) -> TraceReport {
        // The victim demote/recall fields were event-sourced live into
        // `st.prefix`; the index and ladder add this run's delta.
        let mut prefix = st.prefix;
        self.add_cache_delta(&st.cache_base, &mut prefix);
        TraceReport {
            policy: self.policy.name().to_string(),
            outcomes: st.outcomes,
            rejected: st.rejected,
            shed: st.shed,
            steps: st.decode_steps,
            windowed_steps: st.windowed_steps,
            elapsed_s: st.clock,
            generated_tokens: st.generated,
            peak_batch: st.peak_batch,
            joins: st.joins,
            evictions: st.evictions,
            preemptions: st.preemptions,
            alpha_recomputes: st.alpha_recomputes,
            mean_alpha: if st.decode_steps > 0 {
                st.alpha_steps_sum / st.decode_steps as f64
            } else {
                0.0
            },
            // A shared table is the deterministic union of every group
            // member's (identical-per-deployment) key set — the same
            // number whichever member filled it.
            step_cache_entries: self.memo.borrow().step_entries(),
            host_pcie_bytes: st.host_bytes,
            internal_read_bytes: st.internal_bytes,
            prefill_payload_bytes: st.prefill_payload,
            kv_placed_bytes: st.kv_placed,
            deadline_s: self.config.deadline_s,
            prefill: PrefillBreakdown {
                decode_seconds: st.decode_seconds,
                interference_seconds: st.prefill_interference_s,
                stall_seconds: st.prefill_stall_s,
                chunks: st.prefill_chunks,
                chunk_tokens: st.prefill_chunk_tokens,
            },
            step_latency_s: LatencyHistogram::new(
                st.step_gap_counts.into_iter().map(|(bits, k)| (f64::from_bits(bits), k)),
                st.step_gap_samples,
            ),
            wasted_prefill_tokens: st.wasted_prefill_tokens,
            prefix,
            events: st.trace.as_ref().map_or_else(Vec::new, EventRing::snapshot),
            events_dropped: st.trace.as_ref().map_or(0, EventRing::dropped),
        }
    }

    /// Serves a trace of requests (sorted by `arrival_step`) to
    /// completion and reports request-level latency and throughput.
    ///
    /// The engine serves as a one-slot [`PinnedFleet`]: the crate's one
    /// serving loop, [`ElasticClusterEngine::run_trace`]'s, over this
    /// engine alone. It routes nothing and never scales, so the global
    /// step is this engine's step: idle stretches jump to the next
    /// arrival, and quiet windows to their end or the next arrival.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsortedTrace`] if the trace is not sorted by
    /// arrival step; simulation errors; or
    /// [`CoreError::SchedulerStalled`] if the policy holds queued
    /// requests forever with nothing in flight.
    ///
    /// [`ElasticClusterEngine::run_trace`]: crate::cluster::ElasticClusterEngine::run_trace
    pub fn run_trace(&mut self, trace: &[Request]) -> Result<TraceReport, CoreError> {
        let mut lifecycle = [DeploymentLifecycle::active(ColdStartModel::for_deployment(self))];
        let mut run = Fleet::new(
            std::slice::from_mut(self),
            &mut lifecycle,
            &mut RoundRobin::new(),
            &mut PinnedFleet,
            ElasticConfig::default(),
        )
        .run(trace)?;
        let st = run.states.pop().expect("a one-slot fleet has one run state");
        Ok(self.finish(st))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::super::config::{ChunkMode, PrefixCacheConfig};
    use super::super::policy::{DeadlineEdf, PriorityPreempt};
    use super::*;
    use crate::config::HilosConfig;
    use hilos_llm::{presets, Priority, RequestClass, Slo, TraceConfig};
    use hilos_platform::SystemSpec;

    pub(crate) fn system(n: usize) -> HilosSystem {
        HilosSystem::new(&SystemSpec::a100_smartssd(n), &presets::opt_30b(), &HilosConfig::new(n))
            .unwrap()
            .with_sim_layers(1)
    }

    #[test]
    fn small_trace_completes_every_request() {
        let trace = TraceConfig::azure_mix(64, 3).generate().unwrap();
        let mut eng = ServeEngine::new(system(8), ServeConfig::new(16)).unwrap();
        let report = eng.run_trace(&trace).unwrap();
        assert_eq!(report.outcomes.len(), 64);
        assert_eq!(report.policy, "fifo");
        assert!(report.rejected.is_empty());
        assert_eq!(report.preemptions, 0, "FIFO never preempts");
        assert!(report.peak_batch > 1, "continuous batching never batched");
        assert!(report.elapsed_s > 0.0);
        assert_eq!(
            report.generated_tokens,
            report.outcomes.iter().map(|o| o.output_len).sum::<u64>()
        );
        // Every request's lifecycle is ordered, on the default deployment.
        for o in &report.outcomes {
            assert!(o.arrival_s <= o.admitted_s, "{o:?}");
            assert!(o.admitted_s < o.first_token_s, "{o:?}");
            assert!(o.first_token_s <= o.finished_s, "{o:?}");
            assert_eq!(o.deployment, DeploymentId::default(), "{o:?}");
        }
        // All shard space released at the end.
        assert_eq!(eng.ledger().live_requests(), 0);
    }

    #[test]
    fn trace_runs_are_deterministic() {
        let trace = TraceConfig::azure_mix(48, 11).generate().unwrap();
        let run =
            || ServeEngine::new(system(8), ServeConfig::new(8)).unwrap().run_trace(&trace).unwrap();
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same seed must reproduce bit-identically");
        assert_eq!(a.elapsed_s.to_bits(), b.elapsed_s.to_bits());
    }

    #[test]
    fn batch_cap_bounds_concurrency() {
        let trace = TraceConfig { mean_interarrival_steps: 0, ..TraceConfig::azure_mix(40, 5) }
            .generate()
            .unwrap();
        let mut eng = ServeEngine::new(system(8), ServeConfig::new(4)).unwrap();
        let report = eng.run_trace(&trace).unwrap();
        assert!(report.peak_batch <= 4);
        assert_eq!(report.outcomes.len(), 40);
    }

    #[test]
    fn oversized_request_is_rejected_not_wedged() {
        let mut trace = TraceConfig::azure_mix(8, 2).generate().unwrap();
        // A request whose KV footprint exceeds the whole array.
        trace[0].prompt_len = 40_000_000_000;
        trace[0].output_budget = 1;
        let mut eng = ServeEngine::new(system(4), ServeConfig::new(8)).unwrap();
        let report = eng.run_trace(&trace).unwrap();
        assert_eq!(report.rejected, vec![trace[0].id]);
        assert_eq!(report.outcomes.len(), 7, "the rest of the trace still completes");
    }

    #[test]
    fn alpha_tracks_composition_changes() {
        let trace = TraceConfig::azure_mix(32, 9).generate().unwrap();
        let mut eng = ServeEngine::new(system(8), ServeConfig::new(8)).unwrap();
        let report = eng.run_trace(&trace).unwrap();
        assert!(report.alpha_recomputes >= report.joins.min(report.evictions));
        assert!(report.mean_alpha > 0.0, "MHA model should engage the X-cache");
        assert!(report.step_cache_entries > 0);
        assert!(
            (report.step_cache_entries as u64) < report.steps,
            "step cache should be reused across steps"
        );
    }

    #[test]
    fn degraded_device_skews_serving_placement() {
        let sys = system(4).with_degraded_device(0, 0.25);
        let trace = TraceConfig::azure_mix(24, 7).generate().unwrap();
        let mut eng = ServeEngine::new(sys, ServeConfig::new(8)).unwrap();
        // Snapshot occupancy mid-run is awkward; instead admit manually.
        let m = eng.ledger().device_count();
        assert_eq!(m, 4);
        let report = eng.run_trace(&trace).unwrap();
        assert_eq!(report.outcomes.len(), 24);
        // Verify skew directly on a fresh allocation.
        let placed = eng.ledger.allocate(999, 1 << 30).unwrap();
        assert!(placed[0] * 2 < placed[1], "degraded device should hold less: {placed:?}");
    }

    #[test]
    fn latency_metrics_are_sane() {
        let trace = TraceConfig::azure_mix(64, 13).generate().unwrap();
        let mut eng = ServeEngine::new(system(8), ServeConfig::new(16)).unwrap();
        let report = eng.run_trace(&trace).unwrap();
        let ttft = report.ttft_stats();
        let itl = report.itl_stats();
        assert_eq!(ttft.count, 64);
        assert!(ttft.p50 > 0.0 && ttft.p50 <= ttft.p95 && ttft.p95 <= ttft.p99);
        assert!(itl.p50 > 0.0);
        assert!(report.tokens_per_second() > 0.0);
        assert!(report.token_goodput() <= report.tokens_per_second() + 1e-9);
        let strict = TraceReport { deadline_s: 1e-9, ..report.clone() };
        assert_eq!(strict.token_goodput(), 0.0, "nothing meets a 1ns deadline");
        assert_eq!(strict.deadline_hit_rate(), 0.0);
    }

    #[test]
    fn edf_and_priority_policies_complete_the_same_workload() {
        let trace = TraceConfig { mean_interarrival_steps: 0, ..TraceConfig::azure_mix(48, 21) }
            .generate()
            .unwrap();
        for policy in [
            Box::new(DeadlineEdf::new()) as Box<dyn SchedulingPolicy>,
            Box::new(PriorityPreempt::new()),
        ] {
            let name = policy.name();
            let mut eng = ServeEngine::with_policy(system(8), ServeConfig::new(4), policy).unwrap();
            let report = eng.run_trace(&trace).unwrap();
            assert_eq!(report.policy, name);
            assert_eq!(report.outcomes.len() + report.rejected.len(), 48, "{name}");
            assert_eq!(
                report.generated_tokens,
                report.outcomes.iter().map(|o| o.output_len).sum::<u64>(),
                "{name}"
            );
            assert_eq!(eng.ledger().live_requests(), 0, "{name} leaked shard allocations");
            for o in &report.outcomes {
                assert!(o.first_token_s <= o.finished_s, "{name}: {o:?}");
            }
        }
    }

    #[test]
    fn preemption_fires_and_preserves_every_request() {
        // Balanced load on a tiny batch cap: low-priority longs get
        // admitted in quiet gaps, then arriving high-priority shorts find
        // the batch full and evict them. (Under total overload highs
        // monopolize admission instead and no preemption is ever needed.)
        let trace = TraceConfig { mean_interarrival_steps: 40, ..TraceConfig::azure_mix(96, 33) }
            .generate()
            .unwrap();
        let mut eng = ServeEngine::with_policy(
            system(8),
            ServeConfig::new(4),
            Box::new(PriorityPreempt::new()),
        )
        .unwrap();
        let report = eng.run_trace(&trace).unwrap();
        assert!(report.preemptions > 0, "contended trace should preempt");
        // PriorityPreempt has nothing to say on an empty queue, so it
        // opens windows, and they must reproduce single steps exactly.
        let (windowed, reference, opened, _) = windowed_and_stepwise(
            &trace,
            &ServeConfig::new(4),
            || Box::new(PriorityPreempt::new()),
        );
        assert!(opened > 0, "PriorityPreempt opened no window on an empty queue");
        assert!(windowed == reference, "windowed PriorityPreempt run diverged from single steps");
        assert_eq!(report.outcomes.len(), 96, "preempted requests must still complete");
        assert_eq!(eng.ledger().live_requests(), 0);
        let preempted: Vec<_> = report.outcomes.iter().filter(|o| o.preemptions > 0).collect();
        assert!(!preempted.is_empty());
        for o in &preempted {
            // Retained progress: the outcome still reports the full
            // output budget, not a restart from zero.
            assert!(o.output_len > 0);
            assert!(o.first_token_s <= o.finished_s);
        }
        // Deterministic under preemption too.
        let mut eng2 = ServeEngine::with_policy(
            system(8),
            ServeConfig::new(4),
            Box::new(PriorityPreempt::new()),
        )
        .unwrap();
        assert_eq!(report, eng2.run_trace(&trace).unwrap());
    }

    fn long_heavy_trace() -> Vec<Request> {
        // Long-prompt heavy mix: prefill work dominates, so the chunk
        // modes differ visibly.
        let mut cfg = TraceConfig::long_context(48, 42, 4).with_mean_interarrival(40);
        cfg.class_weights = [1, 3, 6];
        cfg.generate().unwrap()
    }

    #[test]
    fn chunked_prefill_conserves_tokens_and_ledger() {
        let trace = long_heavy_trace();
        for mode in [ChunkMode::lump(), ChunkMode::chunked()] {
            let mut eng =
                ServeEngine::new(system(8), ServeConfig::new(8).with_chunk_mode(mode)).unwrap();
            let free_before = eng.ledger().free_by_device();
            let report = eng.run_trace(&trace).unwrap();
            assert_eq!(report.outcomes.len(), 48, "{mode:?}");
            // Chunk conservation: FIFO never preempts, so every request
            // ingests exactly its prompt — chunked or not.
            for o in &report.outcomes {
                assert_eq!(o.prefill_tokens, o.prompt_len, "{mode:?}: {o:?}");
            }
            assert_eq!(
                report.prefill.chunk_tokens,
                report.outcomes.iter().map(|o| o.prompt_len).sum::<u64>(),
                "{mode:?}: executed chunks must sum to the whole prompts"
            );
            assert!(report.prefill.chunks >= 48, "{mode:?}");
            assert!(report.prefill.prefill_seconds() > 0.0, "{mode:?}");
            assert_eq!(eng.ledger().free_by_device(), free_before, "{mode:?}");
        }
    }

    #[test]
    fn chunked_and_lump_prefill_cost_the_same_total_seconds() {
        // The budget only moves prefill work around in time; the total
        // charged seconds telescope to the same whole-prompt prefills.
        // α is pinned because the auto-α admission choice depends on the
        // live batch size, which can evolve differently per mode.
        let trace = long_heavy_trace();
        let fixed = HilosConfig::new(8).with_alpha(crate::config::AlphaPolicy::Fixed(0.5));
        let run = |mode| {
            let sys = HilosSystem::new(&SystemSpec::a100_smartssd(8), &presets::opt_30b(), &fixed)
                .unwrap()
                .with_sim_layers(1);
            ServeEngine::new(sys, ServeConfig::new(8).with_chunk_mode(mode))
                .unwrap()
                .run_trace(&trace)
                .unwrap()
        };
        let lump = run(ChunkMode::lump());
        let chunked = run(ChunkMode::chunked());
        let (a, b) = (lump.prefill.prefill_seconds(), chunked.prefill.prefill_seconds());
        assert!((a - b).abs() / a < 1e-9, "prefill totals diverged: {a} vs {b}");
        assert_eq!(lump.prefill.chunk_tokens, chunked.prefill.chunk_tokens);
        assert!(chunked.prefill.chunks > lump.prefill.chunks);
    }

    #[test]
    fn chunking_bounds_the_decode_gap_tail() {
        let trace = long_heavy_trace();
        let run = |mode| {
            ServeEngine::new(system(8), ServeConfig::new(8).with_chunk_mode(mode))
                .unwrap()
                .run_trace(&trace)
                .unwrap()
        };
        let lump = run(ChunkMode::lump());
        let chunked = run(ChunkMode::chunked());
        // A lump prefill lands whole inside one step; chunking bounds the
        // per-step interference, so the worst emission gap collapses.
        assert!(
            chunked.step_itl_stats().max < lump.step_itl_stats().max,
            "chunking must bound the worst decode gap: {} vs {}",
            chunked.step_itl_stats().max,
            lump.step_itl_stats().max
        );
        // Off charges prefill nowhere (free parallel ingestion) — both
        // inline modes sit above it, which is the whole point of
        // modeling the contention.
        let off = run(ChunkMode::Off);
        assert_eq!(off.prefill.chunks, 0);
        assert_eq!(off.prefill.prefill_seconds(), 0.0);
        assert!(lump.elapsed_s > off.elapsed_s);
    }

    #[test]
    fn chunk_mode_runs_are_deterministic() {
        let trace = long_heavy_trace();
        let run = || {
            ServeEngine::new(system(8), ServeConfig::new(8).with_chunk_mode(ChunkMode::chunked()))
                .unwrap()
                .run_trace(&trace)
                .unwrap()
        };
        assert_eq!(run(), run(), "chunked serving must stay bit-deterministic");
    }

    #[test]
    fn prefilling_victims_are_cheap_to_preempt_under_chunking() {
        // A policy that preempts whatever is prefilling the moment
        // anything queues: exercises the mid-prefill preemption path.
        #[derive(Debug, Default)]
        struct EvictPrefills {
            /// Requests already named as victims.
            preempted: Vec<u64>,
        }
        impl SchedulingPolicy for EvictPrefills {
            fn name(&self) -> &'static str {
                "evict-prefills"
            }
            fn schedule(&mut self, snap: &SchedSnapshot<'_>) -> Vec<SchedDecision> {
                let mut d = Vec::new();
                if !snap.queue.is_empty() {
                    // At most one preemption per victim, or the loop
                    // would thrash forever re-ingesting the same prompt.
                    let victim = snap
                        .in_flight
                        .iter()
                        .find(|v| !v.decoding && !self.preempted.contains(&v.id));
                    if let Some(v) = victim {
                        self.preempted.push(v.id);
                        d.push(SchedDecision::Preempt { victim: v.id });
                    }
                }
                d.extend(snap.queue.iter().map(|q| SchedDecision::Admit { request: q.id }));
                d
            }
        }
        let trace = TraceConfig::azure_mix(32, 7).with_mean_interarrival(4).generate().unwrap();
        let mut eng = ServeEngine::with_policy(
            system(8),
            ServeConfig::new(4).with_chunk_mode(ChunkMode::chunked()),
            Box::new(EvictPrefills::default()),
        )
        .unwrap();
        let free_before = eng.ledger().free_by_device();
        let report = eng.run_trace(&trace).unwrap();
        assert!(report.preemptions > 0, "prefilling victims must have been preempted");
        assert_eq!(report.outcomes.len(), 32, "preempted prefills still complete");
        // The discarded chunks are charged as wasted work and re-ingested.
        assert!(report.wasted_prefill_tokens > 0);
        let prompts: u64 = report.outcomes.iter().map(|o| o.prompt_len).sum();
        assert!(report.prefill.chunk_tokens > prompts, "re-ingestion must cost extra chunks");
        assert_eq!(eng.ledger().free_by_device(), free_before);
        // Under the legacy side-prefill mode the same policy's preempt
        // decisions are ignored (prefilling is untouchable there).
        let mut off = ServeEngine::with_policy(
            system(8),
            ServeConfig::new(4),
            Box::new(EvictPrefills::default()),
        )
        .unwrap();
        let off_report = off.run_trace(&trace).unwrap();
        assert_eq!(off_report.preemptions, 0);
        assert_eq!(off_report.outcomes.len(), 32);
    }

    #[test]
    fn evacuation_takes_prefills_then_decoders_oldest_first() {
        let mut eng =
            ServeEngine::new(system(8), ServeConfig::new(8).with_chunk_mode(ChunkMode::chunked()))
                .unwrap();
        let mut st = eng.new_run_state();
        // One step under the 2048-token budget ingests both short prompts
        // whole (they join and decode) and one 256-token chunk of each
        // long prompt (still prefilling).
        for (id, prompt_len) in [(0, 200), (1, 200), (2, 4096), (3, 4096), (4, 4096)] {
            let req = Request::new(id, 0, prompt_len, 64, RequestClass::Short).unwrap();
            eng.enqueue_arrival(&mut st, req);
        }
        assert_eq!(eng.advance_once(&mut st).unwrap(), StepProgress::Decoded);
        assert_eq!(st.running.iter().map(|r| r.req.id).collect::<Vec<_>>(), [0, 1]);
        assert!(st.running.iter().all(|r| r.emitted == 1));
        assert_eq!(st.prefilling.iter().map(|p| p.req.id).collect::<Vec<_>>(), [2, 3, 4]);
        assert!(st.prefilling.iter().all(|p| p.prefill_done > 0 && p.prefill_done < 4096));
        let ingested: u64 = st.prefilling.iter().map(|p| p.prefill_done).sum();
        let (wasted, preemptions) = (st.wasted_prefill_tokens, st.preemptions);
        let live = eng.ledger().live_requests();

        let out = eng.evacuate_in_flight(&mut st, 4);
        // Every prefill (oldest first), then the oldest decoder.
        assert_eq!(out.iter().map(|e| e.req.id).collect::<Vec<_>>(), [2, 3, 4, 0]);
        assert!(out.iter().all(|e| e.preemptions == 1));
        assert_eq!(out[3].emitted, 1, "decode progress is retained");
        // Lost work: each prefill's ingested chunks, and the decoder's
        // prompt plus its emitted token.
        assert_eq!(st.wasted_prefill_tokens - wasted, ingested + 200 + 1);
        assert_eq!(st.preemptions - preemptions, 4);
        assert_eq!(live - eng.ledger().live_requests(), 4);
        assert!(st.prefilling.is_empty());
        assert_eq!(st.running.iter().map(|r| r.req.id).collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn engine_refuses_to_shed_viable_requests() {
        // A policy that tries to shed everything: the engine must ignore
        // the sheds (every deadline is still live) and stall instead,
        // because the policy never admits.
        #[derive(Debug)]
        struct ShedEverything;
        impl SchedulingPolicy for ShedEverything {
            fn name(&self) -> &'static str {
                "shed-everything"
            }
            fn may_shed(&self) -> bool {
                true
            }
            fn schedule(&mut self, snap: &SchedSnapshot<'_>) -> Vec<SchedDecision> {
                snap.queue.iter().map(|q| SchedDecision::Shed { request: q.id }).collect()
            }
        }
        let trace = TraceConfig::azure_mix(4, 1).generate().unwrap();
        let mut eng =
            ServeEngine::with_policy(system(4), ServeConfig::new(4), Box::new(ShedEverything))
                .unwrap();
        match eng.run_trace(&trace) {
            Err(CoreError::SchedulerStalled { queued }) => assert_eq!(queued, 4),
            other => panic!("viable requests must not be shed: {other:?}"),
        }
    }

    #[test]
    fn edf_shedding_drops_hopeless_requests_under_overload() {
        let trace = TraceConfig::azure_mix(192, 42).with_mean_interarrival(5).generate().unwrap();
        let run = |policy: Box<dyn SchedulingPolicy>| {
            ServeEngine::with_policy(system(8), ServeConfig::new(8), policy)
                .unwrap()
                .run_trace(&trace)
                .unwrap()
        };
        let plain = run(Box::new(DeadlineEdf::new()));
        let shedding = run(Box::new(DeadlineEdf::with_shedding()));
        assert!(plain.shed.is_empty());
        assert_eq!(plain.outcomes.len(), 192);
        assert!(!shedding.shed.is_empty(), "the overloaded trace must shed");
        // outcomes + rejected + shed partition the trace.
        assert_eq!(shedding.outcomes.len() + shedding.rejected.len() + shedding.shed.len(), 192);
        // Every shed was provably hopeless, after its deadline.
        for s in &shedding.shed {
            assert!(s.overdue_s() >= 0.0, "{s:?}");
            assert!(s.shed_s >= s.arrival_s + s.slo_deadline_s, "{s:?}");
        }
        // Shed ids never appear as outcomes.
        for s in &shedding.shed {
            assert!(shedding.outcomes.iter().all(|o| o.id != s.id), "{s:?} also completed");
        }
    }

    #[test]
    fn refusing_policy_stalls_loudly_not_silently() {
        #[derive(Debug)]
        struct Refusenik;
        impl SchedulingPolicy for Refusenik {
            fn name(&self) -> &'static str {
                "refusenik"
            }
            fn schedule(&mut self, _: &SchedSnapshot<'_>) -> Vec<SchedDecision> {
                Vec::new()
            }
        }
        let trace = TraceConfig::azure_mix(4, 1).generate().unwrap();
        let mut eng =
            ServeEngine::with_policy(system(4), ServeConfig::new(4), Box::new(Refusenik)).unwrap();
        match eng.run_trace(&trace) {
            Err(CoreError::SchedulerStalled { queued }) => assert_eq!(queued, 4),
            other => panic!("expected SchedulerStalled, got {other:?}"),
        }
    }

    #[test]
    fn cache_off_reports_idle_prefix_stats() {
        // A shared-prefix trace through a cache-less engine: the prefix
        // keys are ignored, and the report's cache section is all-zero.
        let trace = TraceConfig::shared_prefix_mix(48, 9).generate().unwrap();
        let mut eng = ServeEngine::new(system(8), ServeConfig::new(8)).unwrap();
        let report = eng.run_trace(&trace).unwrap();
        assert_eq!(report.outcomes.len(), 48);
        assert_eq!(report.prefix, PrefixCacheStats::default());
        assert_eq!(eng.prefix_hit_rate(), 0.0);
    }

    #[test]
    fn prefix_hits_skip_prefill_and_conserve_outputs() {
        let trace = TraceConfig::shared_prefix_mix(96, 9).generate().unwrap();
        let run = |cache: Option<PrefixCacheConfig>| {
            let mut cfg = ServeConfig::new(8);
            if let Some(pc) = cache {
                cfg = cfg.with_prefix_cache(pc);
            }
            ServeEngine::new(system(8), cfg).unwrap().run_trace(&trace).unwrap()
        };
        let off = run(None);
        let on = run(Some(PrefixCacheConfig::default()));
        // Reuse does not change *what* is served, only how fast: the
        // same requests complete with the same token counts.
        assert_eq!(on.outcomes.len(), off.outcomes.len());
        assert_eq!(on.generated_tokens, off.generated_tokens);
        // Completion *order* may change (hits finish sooner); the served
        // set and per-request token counts may not.
        let served = |r: &TraceReport| {
            let mut v: Vec<(u64, u64)> = r.outcomes.iter().map(|o| (o.id, o.output_len)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(served(&on), served(&off));
        // The trace shares prefixes aggressively; the cache must hit.
        assert!(on.prefix.lookups > 0, "every keyed admission probes");
        assert!(on.prefix.hits > 0, "shared-prefix trace never hit");
        assert!(on.prefix.saved_prefill_tokens > 0);
        assert!(on.prefix.hit_rate() > 0.0 && on.prefix.hit_rate() <= 1.0);
        // Hits charge their recall I/O but skip whole prefill chunks:
        // prefill-side work must strictly drop.
        let charged_on: u64 = on.outcomes.iter().map(|o| o.prefill_tokens).sum();
        let charged_off: u64 = off.outcomes.iter().map(|o| o.prefill_tokens).sum();
        assert_eq!(
            charged_off - charged_on,
            on.prefix.saved_prefill_tokens,
            "every saved token is a prefill token never charged"
        );
        assert_eq!(off.prefix, PrefixCacheStats::default());
        // Deterministic with the cache on, too.
        assert_eq!(on, run(Some(PrefixCacheConfig::default())));
    }

    #[test]
    fn preemption_demotes_and_recalls_instead_of_discarding() {
        // Same contended setup as preemption_fires_and_preserves_every_request,
        // with the residency ladder catching the victims.
        let trace = TraceConfig { mean_interarrival_steps: 40, ..TraceConfig::azure_mix(96, 33) }
            .generate()
            .unwrap();
        let run = |cache: Option<PrefixCacheConfig>| {
            let mut cfg = ServeConfig::new(4);
            if let Some(pc) = cache {
                cfg = cfg.with_prefix_cache(pc);
            }
            ServeEngine::with_policy(system(8), cfg, Box::new(PriorityPreempt::new()))
                .unwrap()
                .run_trace(&trace)
                .unwrap()
        };
        let off = run(None);
        let on = run(Some(PrefixCacheConfig::default()));
        assert!(off.preemptions > 0, "contended trace should preempt");
        assert_eq!(on.outcomes.len(), off.outcomes.len());
        assert!(on.prefix.victim_demotions > 0, "victims must park in the ladder");
        assert!(on.prefix.victim_recalls > 0, "re-admissions must recall, not recompute");
        assert!(on.prefix.recalled_prefill_tokens > 0);
        assert!(on.prefix.demoted_bytes() > 0);
        assert!(
            on.wasted_prefill_tokens < off.wasted_prefill_tokens,
            "demote-instead-of-discard must cut re-materialization debt: \
             {} !< {}",
            on.wasted_prefill_tokens,
            off.wasted_prefill_tokens
        );
    }

    /// The stepwise reference: the single-deployment loop as it ran
    /// before quiet windows, one [`ServeEngine::advance_once`] per step.
    pub(crate) fn run_stepwise(eng: &mut ServeEngine, trace: &[Request]) -> TraceReport {
        stepwise_counting_windows(eng, trace).0
    }

    /// [`run_stepwise`], also counting the steps a one-slot windowed run
    /// would run inside quiet windows: after a decoding step outside any
    /// window, [`ServeEngine::quiet_steps_ahead`] cut at the next
    /// arrival. The counts are `(all windowed steps, those in windows
    /// opened with a prefill in flight)`; reading them changes nothing in
    /// the run.
    fn stepwise_counting_windows(
        eng: &mut ServeEngine,
        trace: &[Request],
    ) -> (TraceReport, u64, u64) {
        let mut st = eng.new_run_state();
        let (mut quiet, mut quiet_prefilling) = (0, 0);
        // The first step past the last counted window.
        let mut window_end = 0;
        let (mut idx, mut step) = (0usize, 0u64);
        while idx < trace.len() || st.has_work() {
            while idx < trace.len() && trace[idx].arrival_step <= step {
                eng.enqueue_arrival(&mut st, trace[idx]);
                idx += 1;
            }
            if !st.has_work() {
                if idx >= trace.len() {
                    break;
                }
                step = trace[idx].arrival_step;
                continue;
            }
            match eng.advance_once(&mut st).unwrap() {
                StepProgress::Stalled => {
                    assert!(idx < trace.len(), "the reference run stalled");
                    step = trace[idx].arrival_step;
                }
                StepProgress::Decoded => {
                    if step >= window_end {
                        let until_arrival =
                            trace.get(idx).map_or(u64::MAX, |r| r.arrival_step - step - 1);
                        let k = eng.quiet_steps_ahead(&st).min(until_arrival);
                        quiet += k;
                        if st.prefilling_len() > 0 {
                            quiet_prefilling += k;
                        }
                        window_end = step + k + 1;
                    }
                    step += 1;
                }
                StepProgress::NoDecode => step += 1,
            }
        }
        (eng.finish(st), quiet, quiet_prefilling)
    }

    /// Runs `trace` through the windowed `run_trace` and the stepwise
    /// reference on fresh engines. Returns both reports, the windowed
    /// step count, which is taken off the windowed report (zeroed) so the
    /// two compare whole, and how many of those steps ran in windows
    /// opened with a prefill in flight. The windowed count must be the
    /// one the reference predicts.
    fn windowed_and_stepwise(
        trace: &[Request],
        config: &ServeConfig,
        policy: impl Fn() -> Box<dyn SchedulingPolicy>,
    ) -> (TraceReport, TraceReport, u64, u64) {
        let build = || ServeEngine::with_policy(system(8), config.clone(), policy()).unwrap();
        let mut windowed = build().run_trace(trace).unwrap();
        let (reference, quiet, quiet_prefilling) = stepwise_counting_windows(&mut build(), trace);
        let opened = std::mem::take(&mut windowed.windowed_steps);
        assert_eq!(opened, quiet, "windowed steps differ from the quiet steps the reference saw");
        (windowed, reference, opened, quiet_prefilling)
    }

    /// Cases of [`windows_equal_single_steps`].
    const WINDOW_CASES: u32 = 48;

    thread_local! {
        /// `(cases run, steps windowed with a prefill in flight)` so far
        /// in [`windows_equal_single_steps`], so its last case can check
        /// that chunk windows were reached at all.
        static PREFILL_WINDOWS: std::cell::Cell<(u32, u64)> = const { std::cell::Cell::new((0, 0)) };
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(WINDOW_CASES))]

        /// Quiet windows are exact: on random traces under every shipped
        /// policy, chunk mode and tracing setting (a small ring, so
        /// events drop), `run_trace` reproduces the stepwise reference's
        /// whole report, events and memo size included. The last chunk
        /// mode binds the step budget: with three prefills in flight the
        /// third's take is cut by it, and a fourth takes nothing.
        #[test]
        fn windows_equal_single_steps(
            seed in 0u64..1_000_000,
            requests in 4usize..28,
            gap in 0u64..48,
            max_batch in 2u32..9,
            policy_i in 0usize..4,
            chunk_i in 0usize..4,
            traced in 0u8..2,
            deadline_s in 0.5f64..60.0,
        ) {
            // Tight per-class deadlines, so the shedding policy sheds.
            let slos = [(1.0, Priority::High), (2.0, Priority::Normal), (4.0, Priority::Low)]
                .map(|(scale, priority)| Slo::new(scale * deadline_s, priority));
            let trace = TraceConfig::azure_mix(requests, seed)
                .with_mean_interarrival(gap)
                .with_class_slos(slos)
                .generate()
                .unwrap();
            let policy = || -> Box<dyn SchedulingPolicy> {
                match policy_i {
                    0 => Box::new(Fifo),
                    1 => Box::new(DeadlineEdf::new()),
                    2 => Box::new(DeadlineEdf::with_shedding()),
                    _ => Box::new(PriorityPreempt::new()),
                }
            };
            let mode = [
                ChunkMode::Off,
                ChunkMode::lump(),
                ChunkMode::chunked(),
                ChunkMode::Chunked { chunk_tokens: 96, step_budget_tokens: 200 },
            ][chunk_i];
            let mut config = ServeConfig::new(max_batch).with_chunk_mode(mode);
            if traced == 1 {
                config = config.with_tracing(64);
            }
            proptest::prop_assert!(config.validate().is_ok());
            let (windowed, reference, _, prefilling) =
                windowed_and_stepwise(&trace, &config, policy);
            proptest::prop_assert!(
                windowed == reference,
                "policy {policy_i}, chunk mode {chunk_i}, traced {traced}: windows diverged"
            );
            let (cases, reached) = PREFILL_WINDOWS.get();
            PREFILL_WINDOWS.set((cases + 1, reached + prefilling));
            if cases + 1 == WINDOW_CASES {
                proptest::prop_assert!(
                    reached + prefilling > 0,
                    "no case windowed a step with a prefill in flight"
                );
            }
        }
    }

    #[test]
    fn fifo_runs_open_windows_that_match_single_steps() {
        let trace = TraceConfig::azure_mix(32, 5).with_mean_interarrival(24).generate().unwrap();
        let config = ServeConfig::new(8).with_tracing(1 << 16);
        let (windowed, reference, opened, _) =
            windowed_and_stepwise(&trace, &config, || Box::new(Fifo));
        assert!(
            opened > reference.steps / 2,
            "only {opened} of {} steps windowed",
            reference.steps
        );
        assert_eq!(windowed.events_dropped, 0);
        assert!(windowed == reference, "windowed Fifo run diverged from the stepwise reference");
    }

    #[test]
    fn windows_run_through_an_inflight_chunked_prefill() {
        // A short request decodes while a 4K-token prompt arrives on the
        // next step. The prompt's first chunk runs with its admission and
        // its last with its join; every step between only ingests the
        // next chunk and decodes, so it runs windowed. The prompt's one
        // output token completes it on the join step, and the short
        // request completes on the step after, so nothing else is quiet.
        let trace = [
            Request::new(0, 0, 64, 18, RequestClass::Short).unwrap(),
            Request::new(1, 1, 4096, 1, RequestClass::Long).unwrap(),
        ];
        let config =
            ServeConfig::new(8).with_chunk_mode(ChunkMode::chunked()).with_tracing(1 << 12);
        let (windowed, reference, opened, prefilling) =
            windowed_and_stepwise(&trace, &config, || Box::new(Fifo));
        let chunks = reference
            .events
            .iter()
            .filter(|e| e.request == 1 && matches!(e.kind, EventKind::PrefillChunk { .. }))
            .count() as u64;
        assert_eq!(chunks, 16);
        assert!(opened >= chunks - 2, "only {opened} of the prefill's {chunks} steps windowed");
        assert_eq!(prefilling, opened, "a window opened with no prefill in flight");
        assert_eq!(windowed.events_dropped, 0);
        assert!(windowed == reference, "a chunk window diverged from the stepwise reference");
    }
}
