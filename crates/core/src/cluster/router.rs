//! The cluster engine: N independent deployments advanced in lockstep
//! under one global arrival cursor, with dispatch through a
//! [`RoutingPolicy`].
//!
//! Each lockstep iteration runs in **two phases**: phase A fans every
//! deployment-with-work's serving iteration out over a persistent
//! [`hilos_accel::Fanout`] pool (each worker mutates only the one
//! deployment it holds), then phase B merges the per-slot results — step
//! progress and freshly preempted migration offers — back **in
//! deployment-index order** on the driving thread, where all routing,
//! migration and stall decisions are made. Because phase A is
//! per-deployment-isolated and phase B is serial and ordered, the whole
//! run is bit-identical at any [`ClusterConfig::with_cluster_threads`]
//! setting.

use super::elastic::LifecycleState;
use super::policy::{ClusterSnapshot, DeploymentView, RouteRequest, RoutingPolicy};
use super::report::ClusterReport;
use crate::runner::CoreError;
use crate::serve::engine::{QueueEntry, RunState, SharedStepCache, StepProgress};
use crate::serve::ServeEngine;
use hilos_accel::with_fanout;
use hilos_llm::{DeploymentId, Request};
use hilos_trace::EventKind;
use std::collections::HashMap;
use std::sync::Arc;

/// One deployment's engine plus its live run state — the unit phase A
/// moves to a fan-out worker and back. `Option`-wrapped in the driver so
/// a slot can be checked out for its iteration and checked back in.
pub(crate) type Slot = (ServeEngine, RunState);

/// One slot's phase-A result: its serving-iteration outcome plus the
/// victims it just preempted.
pub(crate) type PhaseA = (Result<StepProgress, CoreError>, Vec<QueueEntry>);

/// Cluster-execution knobs, shared by [`ClusterEngine`] and the elastic
/// engine (via
/// [`ElasticConfig::cluster`](super::elastic::ElasticConfig::cluster)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Worker threads for the phase-A lockstep fan-out. `1` (the
    /// default) advances deployments inline on the driving thread; any
    /// value produces bit-identical reports and trace streams.
    pub cluster_threads: usize,
    /// Share one step/prefill memo table among deployments with
    /// identical system fingerprints (on by default), so the fleet pays
    /// each memoization miss once instead of once per twin — and a
    /// freshly provisioned elastic slot warm-starts from its siblings.
    /// Purely a wall-clock optimization: results are bit-identical
    /// either way.
    pub shared_warm_start: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig { cluster_threads: 1, shared_warm_start: true }
    }
}

impl ClusterConfig {
    /// The default configuration: single-threaded stepping, shared
    /// warm-start on.
    pub fn new() -> Self {
        ClusterConfig::default()
    }

    /// Sets the lockstep fan-out width (clamped to at least 1).
    #[must_use]
    pub fn with_cluster_threads(mut self, threads: usize) -> Self {
        self.cluster_threads = threads.max(1);
        self
    }

    /// Enables or disables the fingerprint-grouped shared memo tables.
    #[must_use]
    pub fn with_shared_warm_start(mut self, on: bool) -> Self {
        self.shared_warm_start = on;
        self
    }
}

/// Groups deployments by [`ServeEngine::system_fingerprint`] and hands
/// each group one shared step/prefill memo table.
pub(crate) fn install_shared_warm_start(deployments: &mut [ServeEngine]) {
    let mut groups: HashMap<u64, Arc<SharedStepCache>> = HashMap::new();
    for eng in deployments.iter_mut() {
        let shared = groups.entry(eng.system_fingerprint()).or_default().clone();
        eng.set_shared_cache(shared);
    }
}

/// Validates a routing policy's answer against the deployment count:
/// an out-of-range pick trips a `debug_assert!` (a buggy policy should
/// fail loudly in development), and in release builds is counted into
/// [`ClusterReport::misrouted`] and clamped to the last deployment so
/// the run can still complete.
pub(crate) fn clamp_route(pick: usize, n: usize, misrouted: &mut u64) -> usize {
    if pick < n {
        return pick;
    }
    debug_assert!(false, "routing policy picked deployment {pick} of a {n}-deployment cluster");
    *misrouted += 1;
    n - 1
}

/// Hourly provisioning price of one deployment: `(hourly cost USD,
/// full-utilization watts)`. Computed once per engine — the system spec
/// never changes mid-run — and stamped into every routing view.
pub(crate) fn provisioning_cost(eng: &ServeEngine) -> (f64, f64) {
    let spec = eng.system().spec();
    let power_w = hilos_metrics::provisioned_power_w(spec);
    (hilos_metrics::hourly_cost_usd(spec.total_price_usd(), power_w), power_w)
}

/// One deployment's routing view — the single construction point shared
/// by the fixed [`ClusterEngine`] (always
/// [`Active`](LifecycleState::Active)) and the elastic engine (which
/// passes each slot's actual lifecycle state).
pub(crate) fn deployment_view(
    eng: &ServeEngine,
    st: &RunState,
    dispatched: u64,
    lifecycle: LifecycleState,
    cost: (f64, f64),
) -> DeploymentView {
    let ledger = eng.ledger();
    DeploymentView {
        id: eng.deployment().0,
        queued: st.queued_len(),
        prefilling: st.prefilling_len(),
        decoding: st.decoding_len(),
        max_batch: eng.config().max_batch,
        clock_s: st.clock,
        pressure: ledger.pressure(),
        placeable_free_bytes: ledger.placeable_free(),
        bandwidth_weight: ledger.total_weight(),
        device_count: ledger.device_count(),
        dispatched,
        prefill_backlog_tokens: st.prefill_backlog_tokens(),
        prefix_hit_rate: eng.prefix_hit_rate(),
        lifecycle,
        hourly_cost_usd: cost.0,
        active_power_w: cost.1,
    }
}

/// A multi-deployment cluster: one trace balanced across heterogeneous
/// HILOS deployments.
///
/// Each deployment is a complete [`ServeEngine`] — its own
/// [`HilosSystem`](crate::HilosSystem) (device count, degradations), its
/// own [`SchedulingPolicy`](crate::SchedulingPolicy) and its own
/// per-device KV shard ledgers. The cluster engine owns the *global*
/// concerns: the arrival cursor every deployment shares, dispatch of each
/// arriving request through the [`RoutingPolicy`], cross-deployment
/// re-dispatch of preempted requests, and stall detection across the
/// whole cluster.
///
/// # Time
///
/// Deployments advance in lockstep — one serving iteration each per
/// global step — but keep their own simulated clocks, which only move
/// under work (the single-deployment engine's semantics: idle time is
/// skipped, not simulated). A cluster of one deployment is therefore
/// *bit-identical* to [`ServeEngine::run_trace`] on the same system,
/// whatever the routing policy — pinned by a golden test. Because the
/// clocks are independent busy-time axes, a request migrated between
/// deployments has its timestamps re-based by the clock delta: its
/// latencies sum the busy time it spent on each deployment, and stay
/// non-negative however far the clocks have diverged.
///
/// # Determinism
///
/// One lockstep iteration is two phases: deployments with work advance
/// concurrently over the fan-out pool (phase A — each worker owns
/// exactly one deployment's engine and state), and their step progress
/// plus preemption-migration offers are merged serially in
/// deployment-index order (phase B — where every routing and migration
/// decision happens). Reports, golden FNV pins and traced event streams
/// are therefore bit-identical at any `cluster_threads`; the thread
/// count only changes wall-clock.
///
/// # Examples
///
/// ```
/// use hilos_core::cluster::{ClusterEngine, LedgerPressure};
/// use hilos_core::{HilosConfig, HilosSystem, ServeConfig, ServeEngine};
/// use hilos_llm::{presets, TraceConfig};
/// use hilos_platform::SystemSpec;
///
/// # fn main() -> Result<(), hilos_core::CoreError> {
/// let deployment = |n: usize| -> Result<ServeEngine, hilos_core::CoreError> {
///     let sys = HilosSystem::new(
///         &SystemSpec::a100_smartssd(n),
///         &presets::opt_30b(),
///         &HilosConfig::new(n),
///     )?
///     .with_sim_layers(1);
///     ServeEngine::new(sys, ServeConfig::new(8))
/// };
/// let mut cluster = ClusterEngine::new(
///     vec![deployment(8)?, deployment(4)?],
///     Box::new(LedgerPressure::new()),
/// );
/// let trace = TraceConfig::azure_mix(32, 7).generate().unwrap();
/// let report = cluster.run_trace(&trace)?;
/// assert_eq!(report.completed() + report.rejected_len(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ClusterEngine {
    engines: Vec<ServeEngine>,
    routing: Box<dyn RoutingPolicy>,
    config: ClusterConfig,
    /// Per-deployment `(hourly cost USD, watts)`, in deployment order.
    costs: Vec<(f64, f64)>,
}

impl ClusterEngine {
    /// Assembles a cluster from fully-built deployments (each keeps the
    /// scheduling policy it was built with) and a routing policy, with
    /// the default [`ClusterConfig`]. Deployments are assigned
    /// [`DeploymentId`]s in vector order.
    ///
    /// # Panics
    ///
    /// Panics if `deployments` is empty.
    pub fn new(deployments: Vec<ServeEngine>, routing: Box<dyn RoutingPolicy>) -> Self {
        ClusterEngine::with_config(deployments, routing, ClusterConfig::default())
    }

    /// [`ClusterEngine::new`] with explicit execution knobs.
    ///
    /// # Panics
    ///
    /// Panics if `deployments` is empty.
    pub fn with_config(
        mut deployments: Vec<ServeEngine>,
        routing: Box<dyn RoutingPolicy>,
        config: ClusterConfig,
    ) -> Self {
        assert!(!deployments.is_empty(), "a cluster needs at least one deployment");
        for (i, d) in deployments.iter_mut().enumerate() {
            d.set_deployment(DeploymentId(i as u32));
        }
        if config.shared_warm_start {
            install_shared_warm_start(&mut deployments);
        }
        let costs = deployments.iter().map(provisioning_cost).collect();
        ClusterEngine { engines: deployments, routing, config, costs }
    }

    /// Number of deployments.
    pub fn deployment_count(&self) -> usize {
        self.engines.len()
    }

    /// The cluster-execution configuration.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// The active routing policy's name.
    pub fn routing_name(&self) -> &'static str {
        self.routing.name()
    }

    /// The deployments, in [`DeploymentId`] order.
    pub fn deployments(&self) -> &[ServeEngine] {
        &self.engines
    }

    /// Builds the read-only per-deployment views and asks the routing
    /// policy for a target, validating out-of-range answers
    /// ([`clamp_route`]).
    fn route_slots(
        routing: &mut dyn RoutingPolicy,
        slots: &[Option<Slot>],
        dispatched: &[u64],
        costs: &[(f64, f64)],
        step: u64,
        request: RouteRequest,
        misrouted: &mut u64,
    ) -> usize {
        let views: Vec<DeploymentView> = slots
            .iter()
            .zip(dispatched.iter().zip(costs))
            .map(|(slot, (&d, &cost))| {
                let (eng, st) = slot.as_ref().expect("slot checked in between iterations");
                // A fixed fleet is permanently Active — the lifecycle
                // field only varies under the elastic engine.
                deployment_view(eng, st, d, LifecycleState::Active, cost)
            })
            .collect();
        let snapshot = ClusterSnapshot { step, deployments: &views };
        clamp_route(routing.route(&request, &snapshot), slots.len(), misrouted)
    }

    /// Serves a trace of requests (sorted by `arrival_step`) across the
    /// cluster to completion.
    ///
    /// Each global step: (1) arrivals whose step has come are dispatched
    /// through the routing policy to a deployment's admission queue, at
    /// that deployment's clock; (2) **phase A** — every deployment with
    /// work runs one serving iteration ([scheduling → join → decode →
    /// eviction](crate::serve)) concurrently over the fan-out pool, each
    /// worker mutating only the deployment it holds; (3) **phase B** —
    /// per-slot results merge back in deployment-index order: requests a
    /// scheduling policy preempted this iteration are offered back to
    /// the *router*, which may re-dispatch them — progress retained —
    /// onto a less-pressured deployment. Phase B's routing sees every
    /// deployment post-advance, so its decisions (and the whole run) are
    /// independent of the fan-out width.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors, or [`CoreError::SchedulerStalled`]
    /// if every deployment with queued work holds it forever with nothing
    /// in flight.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival step.
    pub fn run_trace(&mut self, trace: &[Request]) -> Result<ClusterReport, CoreError> {
        assert!(
            trace.windows(2).all(|w| w[0].arrival_step <= w[1].arrival_step),
            "trace must be sorted by arrival step"
        );
        let n = self.engines.len();
        let threads = self.config.cluster_threads.min(n);
        let mut slots: Vec<Option<Slot>> = std::mem::take(&mut self.engines)
            .into_iter()
            .map(|e| {
                let st = e.new_run_state();
                Some((e, st))
            })
            .collect();
        let mut dispatched = vec![0u64; n];
        let mut redispatches = 0u64;
        let mut misrouted = 0u64;

        // Phase A's unit of work: one deployment's serving iteration,
        // plus the drain of its freshly preempted victims. Touches only
        // the slot it is handed — the determinism contract.
        let advance = |_d: usize, slot: &mut Slot| -> PhaseA {
            let (eng, st) = slot;
            match eng.advance_once(st) {
                Ok(p) => (Ok(p), st.drain_just_preempted()),
                Err(e) => (Err(e), Vec::new()),
            }
        };

        let run: Result<(), CoreError> = with_fanout(threads, advance, |pool| {
            let mut idx = 0usize;
            let mut gstep = 0u64;
            // Per-slot phase-A results, merged in deployment order.
            let mut results: Vec<Option<PhaseA>> = (0..n).map(|_| None).collect();
            loop {
                // 1: dispatch arrivals up to the global serving step.
                while idx < trace.len() && trace[idx].arrival_step <= gstep {
                    let req = trace[idx];
                    let view = RouteRequest::of(&req, 0, false);
                    let d = Self::route_slots(
                        self.routing.as_mut(),
                        &slots,
                        &dispatched,
                        &self.costs,
                        gstep,
                        view,
                        &mut misrouted,
                    );
                    dispatched[d] += 1;
                    let (eng, st) = slots[d].as_mut().expect("slot checked in");
                    st.emit(DeploymentId(d as u32), req.id, EventKind::Routed);
                    eng.enqueue_arrival(st, req);
                    idx += 1;
                }
                // Fully idle everywhere with traffic still ahead: jump
                // the global cursor to the next arrival.
                let any_work =
                    slots.iter().any(|s| s.as_ref().expect("slot checked in").1.has_work());
                if !any_work {
                    if idx >= trace.len() {
                        break;
                    }
                    gstep = trace[idx].arrival_step;
                    continue;
                }

                // 2 / phase A: check every deployment with work out to
                // the pool for one lockstep serving iteration.
                let batch: Vec<(usize, Slot)> = (0..n)
                    .filter_map(|d| {
                        if !slots[d].as_ref().expect("slot checked in").1.has_work() {
                            return None;
                        }
                        let mut s = slots[d].take().expect("slot checked in");
                        s.1.step = gstep;
                        Some((d, s))
                    })
                    .collect();
                for (d, s, out) in pool.run(batch) {
                    slots[d] = Some(s);
                    results[d] = Some(out);
                }

                // 3 / phase B: merge in deployment-index order — freshly
                // preempted victims go back through the router (their
                // engine re-queued them locally; draining and re-queuing
                // on the same deployment is a no-op, so a router that
                // keeps them local preserves single-engine behavior
                // exactly).
                let mut all_stalled = true;
                for d in 0..n {
                    let Some((res, moved)) = results[d].take() else {
                        continue;
                    };
                    let progress = res?;
                    if progress != StepProgress::Stalled {
                        all_stalled = false;
                    }
                    for mut entry in moved {
                        let view = RouteRequest::of(&entry.req, entry.emitted, true);
                        let target = Self::route_slots(
                            self.routing.as_mut(),
                            &slots,
                            &dispatched,
                            &self.costs,
                            gstep,
                            view,
                            &mut misrouted,
                        );
                        if target != d {
                            redispatches += 1;
                            // Demoted KV is parked in the *source*
                            // deployment's ladder; a migrated victim
                            // cannot recall it from another deployment —
                            // drop it there and let the target recompute
                            // (booked as wasted prefill).
                            {
                                let (eng, st) = slots[d].as_mut().expect("slot checked in");
                                eng.forget_demoted(st, entry.req.id);
                            }
                            // Deployment clocks are independent busy-time
                            // axes (idle gaps are skipped, so they diverge
                            // freely); an absolute timestamp from one
                            // domain is meaningless in another. Re-base
                            // the entry's timestamps by the clock delta so
                            // the *durations* accrued so far survive the
                            // move — TTFT/e2e then sum busy time spent on
                            // each deployment, stay non-negative, and keep
                            // `first_token_s <= finished_s`.
                            let from_clock = slots[d].as_ref().expect("slot checked in").1.clock;
                            let (_, st_t) = slots[target].as_mut().expect("slot checked in");
                            let shift = st_t.clock - from_clock;
                            entry.arrival_s += shift;
                            entry.first_token_s = entry.first_token_s.map(|t| t + shift);
                            entry.first_admitted_s = entry.first_admitted_s.map(|t| t + shift);
                            st_t.emit(
                                DeploymentId(target as u32),
                                entry.req.id,
                                EventKind::Migrated {
                                    from: d as u32,
                                    arrival_s: entry.arrival_s,
                                    first_token_s: entry.first_token_s.unwrap_or(0.0),
                                    emitted: entry.emitted,
                                },
                            );
                        }
                        let (eng, st) = slots[target].as_mut().expect("slot checked in");
                        eng.requeue(st, entry);
                    }
                }
                // Every working deployment stalled (policies holding
                // queues with nothing in flight): feed the cluster the
                // next arrival, or fail loudly once the trace is
                // exhausted.
                if all_stalled {
                    if idx >= trace.len() {
                        return Err(CoreError::SchedulerStalled {
                            queued: slots
                                .iter()
                                .map(|s| s.as_ref().expect("slot checked in").1.queued_len())
                                .sum(),
                        });
                    }
                    gstep = trace[idx].arrival_step;
                    continue;
                }
                gstep += 1;
            }
            Ok(())
        });

        // Check every slot back into the engine before surfacing any
        // error — a failed run must not eat the deployments.
        let mut engines = Vec::with_capacity(n);
        let mut states = Vec::with_capacity(n);
        for s in slots {
            let (eng, st) = s.expect("every slot checked back in");
            engines.push(eng);
            states.push(st);
        }
        self.engines = engines;
        run?;

        let deployments: Vec<_> =
            self.engines.iter().zip(states).map(|(eng, st)| eng.finish(st)).collect();
        Ok(ClusterReport::new(
            self.routing.name().to_string(),
            deployments,
            dispatched,
            redispatches,
            misrouted,
        ))
    }
}
