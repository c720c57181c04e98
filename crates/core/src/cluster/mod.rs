//! Cluster serving: one trace balanced — and the fleet itself sized —
//! across heterogeneous HILOS deployments.
//!
//! The paper's cost story is about serving long-context offline
//! inference on *cheap, heterogeneous* near-storage deployments: arrays
//! differ in device count, degradation state and therefore KV capacity
//! and sweep bandwidth. This module turns that into one serving layer
//! above [`crate::serve`] that answers two questions: how should N
//! deployments share a trace, and how many deployments should exist at
//! each moment of it.
//!
//! # One lockstep loop
//!
//! [`ElasticClusterEngine`] owns N deployment slots (each a complete
//! [`ServeEngine`](crate::ServeEngine): its own
//! [`HilosSystem`](crate::HilosSystem), its own
//! [`SchedulingPolicy`](crate::SchedulingPolicy), its own per-device
//! [`KvShardLedger`](hilos_storage::KvShardLedger)) and advances them in
//! lockstep under one global arrival cursor. It is the crate's only
//! serving loop: clusters run it, and so does a lone
//! [`ServeEngine::run_trace`](crate::ServeEngine::run_trace).
//!
//! * Each arriving [`Request`](hilos_llm::Request) is dispatched through
//!   a pluggable [`RoutingPolicy`] fed a read-only [`ClusterSnapshot`] —
//!   queue depth, batch composition, ledger pressure, the degradation
//!   profile, prefix-cache warmth, and each deployment's **lifecycle
//!   state and hourly cost** ([`DeploymentView::lifecycle`],
//!   [`DeploymentView::hourly_cost_usd`]).
//! * Requests a deployment preempts are offered back to the router,
//!   which may **re-dispatch them across deployments** with generated
//!   progress retained.
//! * Every slot carries a [`DeploymentLifecycle`]
//!   (`Provisioning → Warming → Active → Draining → Retired`, with
//!   `Retired → Provisioning` closing the keep-alive cycle); a cold start
//!   is priced by [`ColdStartModel`] from the slot's own model size and
//!   device bandwidth. Once per global step an [`AutoscalePolicy`] (the
//!   reactive [`TargetPressureScaler`], or [`HybridHistogramKeepAlive`],
//!   which learns the inter-burst gap histogram, releases capacity the
//!   moment a burst is confirmed over and pre-warms a cold start ahead
//!   of the predicted next one) sees a [`FleetSnapshot`] and scales the
//!   fleet. A scale-down drains live through the same migration path as
//!   a re-dispatch: queued work re-routes at once, in-flight work
//!   evacuates a batch per step with progress retained, parked demoted
//!   KV drops at the source, and the slot retires only once empty.
//! * A run aggregates into an [`ElasticReport`]: a [`ClusterReport`]
//!   (per-deployment [`TraceReport`](crate::TraceReport)s plus global
//!   TTFT/ITL/goodput views, including [`ClusterReport::goodput_tokens`],
//!   the numerator of fleet-cost accounting), the lifecycle audit trail
//!   and a utilization [`FleetBill`](hilos_metrics::FleetBill) (busy
//!   seconds + paid cold starts per slot) to compare against a
//!   statically-provisioned peak fleet.
//!
//! # The fixed cluster
//!
//! [`ElasticClusterEngine::pinned`] builds that loop with every slot
//! Active from the start and the never-scaling [`PinnedFleet`]
//! autoscaler: no lifecycle transition, drain or cold start ever
//! happens, and a run's [`ElasticReport::cluster`] is all it reports.
//! Callers that size the fleet themselves build their cluster this way.
//!
//! Four routing policies ship in [`policy`]: [`RoundRobin`],
//! [`JoinShortestQueue`], [`LedgerPressure`] (power-of-two-choices on
//! free KV bytes × bandwidth per unit load) and
//! [`CostNormalizedPressure`] (the same score per dollar of hourly
//! provisioning cost — placement by goodput-per-dollar). All of them
//! route only to [routable](DeploymentView::routable) (Active)
//! deployments; on a pinned, fully-Active fleet that filter is the
//! identity.
//!
//! # The two-phase lockstep iteration
//!
//! The loop executes every global step in two phases. **Phase A
//! (advance)**: each deployment with work runs one serving iteration
//! ([`ServeEngine::advance_once`](crate::ServeEngine)) in place, in
//! deployment-index order, touching only its own state — queues,
//! batch, ledgers and event ring all live inside the slot; the one thing
//! slots share is their fingerprint group's memo table (see
//! Determinism).
//! **Phase B (merge)**: the per-slot results (each slot's step progress
//! plus its freshly preempted victims) are folded **in
//! deployment-index order** — stall detection, victim re-routing and
//! cross-deployment migration happen here, as do the lifecycle
//! transitions and autoscale decisions that open each step. Routing
//! waits for phase B so that a victim never lands on a slot before that
//! slot's own iteration of the step.
//!
//! Slots are advanced **lazily** through quiet stretches (see the
//! [`serve` module's quiet windows](crate::serve#quiet-windows)). After a
//! slot's iteration decodes, it may open a window: the next steps that
//! provably only decode. Phase A skips the slot while the global step is
//! inside its window, and the skipped steps count as progress for stall
//! detection. The slot catches up, running its owed steps in one call,
//! at the next step past the window or as soon as the loop touches it:
//! before an arrival is routed onto it, before it evacuates as a
//! Draining slot, before a drain migration lands on it, and before a
//! lifecycle transition is written into its event ring. Each of those
//! runs the owed steps up to the previous global step and closes the
//! window. A phase-B re-dispatch onto a slot runs them through the
//! current step instead, since that slot's own iteration of the step is
//! already owed. Routing and autoscaling read queue, in-flight and ledger
//! counts, and none of these change inside a window, so every decision
//! sees what stepping every slot on every step would have shown it.
//!
//! # Determinism
//!
//! Every routing decision, migration, trace event and report field is a
//! function of the trace, the configuration and the fixed slot order
//! alone — no wall clock, OS randomness or hash-order iteration reaches
//! a decision — so a run reproduces bit for bit: same
//! [`ClusterReport`], same [`ElasticReport`], same event-stream FNV.
//! Memo sharing is unconditional within a fingerprint group: every
//! deployment whose system (spec, degradations, model, configuration)
//! fingerprints alike reads and fills one step/prefill memo table. It is
//! outcome-transparent: cached step values are pure functions of their
//! keys, so sharing changes only which deployment computes an entry
//! first, never what any deployment observes. Lazy slots are transparent
//! the same way: a slot catches up before anything reads its clock or
//! writes its ring, and a window adds the memoized step values in the
//! same order as single steps, so the report and every event stream
//! match a loop that advances every busy slot on every step (a golden
//! pin in `tests/elastic.rs` covers each catch-up point).
//!
//! [`ServeEngine::run_trace`](crate::ServeEngine::run_trace) *is* a
//! pinned fleet of **one** deployment: the loop over that engine alone.
//! A fleet of one slot has one route target, so it consults no routing
//! policy, writes no `Routed` event and keeps preemption victims where
//! its engine re-queued them; a fleet that never scales
//! ([`AutoscalePolicy::may_scale`]) never consults its autoscaler. Any
//! fleet jumps its global step over windows every busy slot sits in, up
//! to the next arrival, lifecycle transition or
//! [`AutoscalePolicy::next_wake`]. So a one-slot
//! [`ElasticClusterEngine::pinned`] fleet reports exactly what
//! `ServeEngine::run_trace` does on the same system under any routing
//! policy (golden-pinned down to the FNV hash of every outcome's
//! lifecycle timestamps).

pub mod elastic;
pub mod policy;
mod report;

pub use elastic::{
    AutoscalePolicy, ColdStartModel, DeploymentLifecycle, ElasticClusterEngine, ElasticConfig,
    ElasticReport, FleetSnapshot, HybridHistogramKeepAlive, LifecycleEvent, LifecycleState,
    PinnedFleet, ScaleDecision, TargetPressureScaler,
};
pub use policy::{
    ClusterSnapshot, CostNormalizedPressure, DeploymentView, JoinShortestQueue, LedgerPressure,
    RoundRobin, RouteRequest, RoutingPolicy,
};
pub use report::ClusterReport;
