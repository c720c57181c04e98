//! The elastic cluster engine: the crate's one lockstep serving loop —
//! routing, cross-deployment migration and stall detection — with a
//! deployment lifecycle, an autoscaler and utilization billing around it.
//! The fixed [`ClusterEngine`](crate::cluster::ClusterEngine) runs this
//! loop under [`PinnedFleet`](super::PinnedFleet).

use super::autoscale::{AutoscalePolicy, FleetSnapshot, ScaleDecision};
use super::lifecycle::{ColdStartModel, DeploymentLifecycle, LifecycleEvent, LifecycleState};
use crate::cluster::policy::{ClusterSnapshot, DeploymentView, RouteRequest, RoutingPolicy};
use crate::cluster::report::ClusterReport;
use crate::runner::CoreError;
use crate::serve::engine::{QueueEntry, RunState, StepProgress};
use crate::serve::memo::SharedStepCache;
use crate::serve::ServeEngine;
use hilos_llm::{DeploymentId, Request};
use hilos_metrics::{FleetBill, SlotBill};
use hilos_trace::{EventKind, NO_REQUEST};
use std::collections::HashMap;
use std::sync::Arc;

/// Runs a slot's owed quiet steps — those of its open window before
/// global step `until` — and closes the window. Every interaction point
/// calls this before it touches the slot, so the slot's clock, counters
/// and event ring are exactly what advancing it on every global step
/// would have left there.
fn catch_up(eng: &mut ServeEngine, st: &mut RunState, until: u64) -> Result<(), CoreError> {
    if let Some((from, last)) = st.window.take() {
        let owed = (last + 1).min(until).saturating_sub(from);
        if owed > 0 {
            eng.advance_quiet(st, owed)?;
        }
    }
    Ok(())
}

/// Records a lifecycle transition: into the audit trail, and into the
/// slot's event ring as the matching trace event (the ring carries the
/// serving-interleaved view). The slot catches up first, so the event
/// lands after every step before the transition's.
fn log_transition(
    engines: &mut [ServeEngine],
    states: &mut [RunState],
    events: &mut Vec<LifecycleEvent>,
    ev: LifecycleEvent,
) -> Result<(), CoreError> {
    let d = ev.deployment as usize;
    catch_up(&mut engines[d], &mut states[d], ev.step)?;
    let kind = match ev.to {
        LifecycleState::Provisioning => EventKind::ScaleUp,
        LifecycleState::Warming => EventKind::Warming,
        LifecycleState::Active => EventKind::Activated,
        LifecycleState::Draining => EventKind::Drain,
        LifecycleState::Retired => EventKind::Retired,
    };
    states[d].emit(DeploymentId(ev.deployment), NO_REQUEST, kind);
    events.push(ev);
    Ok(())
}

/// Moves `entry` from slot `from` onto slot `to`, progress retained.
///
/// Demoted KV is parked in the *source* deployment's ladder; a migrated
/// request cannot recall it from another deployment — drop it there and
/// let the target recompute (booked as wasted prefill). Deployment
/// clocks are independent busy-time axes (idle gaps are skipped, so they
/// diverge freely), so the entry's timestamps are re-based by the clock
/// delta: the *durations* accrued so far survive the move — TTFT/e2e
/// then sum busy time spent on each deployment, stay non-negative, and
/// keep `first_token_s <= finished_s`.
fn migrate(
    engines: &mut [ServeEngine],
    states: &mut [RunState],
    from: usize,
    to: usize,
    mut entry: QueueEntry,
) {
    engines[from].forget_demoted(&mut states[from], entry.req.id);
    let shift = states[to].clock - states[from].clock;
    let st = &mut states[to];
    entry.arrival_s += shift;
    entry.first_token_s = entry.first_token_s.map(|t| t + shift);
    entry.first_admitted_s = entry.first_admitted_s.map(|t| t + shift);
    st.emit(
        DeploymentId(to as u32),
        entry.req.id,
        EventKind::Migrated {
            from: from as u32,
            arrival_s: entry.arrival_s,
            first_token_s: entry.first_token_s.unwrap_or(0.0),
            emitted: entry.emitted,
        },
    );
    engines[to].requeue(st, entry);
}

/// Fleet-elasticity knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticConfig {
    /// Slots provisioned (Active) before the trace starts; the rest
    /// begin Retired and wait for a scale-up.
    pub initial_active: usize,
    /// The engine never drains the fleet below this many Active slots
    /// (at least 1 — a cluster must always be able to serve).
    pub min_active: usize,
    /// Container/VM provisioning seconds of a cold start (the part that
    /// does not depend on model size or device bandwidth).
    pub provision_s: f64,
    /// Seconds one global serving step stands for when converting
    /// cold-start seconds to step thresholds.
    pub step_seconds_hint: f64,
    /// In-flight requests a draining slot evacuates per step — draining
    /// is *stepwise*: the slot keeps serving what it still holds while
    /// the cluster migrates this many requests per step.
    pub drain_batch: usize,
}

impl ElasticConfig {
    /// A config starting `initial_active` slots Active, with the
    /// defaults for everything else.
    pub fn new(initial_active: usize) -> Self {
        ElasticConfig { initial_active, ..ElasticConfig::default() }
    }
}

impl Default for ElasticConfig {
    /// One initial slot, floor of one, a 30-second container provision,
    /// quarter-second steps, four evacuations per drain step.
    fn default() -> Self {
        ElasticConfig {
            initial_active: 1,
            min_active: 1,
            provision_s: 30.0,
            step_seconds_hint: 0.25,
            drain_batch: 4,
        }
    }
}

/// A cluster whose fleet size is a runtime variable.
///
/// Each deployment slot is a complete [`ServeEngine`] plus a
/// [`DeploymentLifecycle`]. Slot `0..initial_active` start Active; the
/// rest start Retired and cost nothing until an [`AutoscalePolicy`]
/// provisions them — paying a [`ColdStartModel`] priced off the slot's
/// own device bandwidth and model size. A scale-down *drains* a slot
/// live: queued requests re-route immediately, in-flight requests are
/// evacuated a batch per step with generated progress retained (the
/// cross-deployment migration machinery), parked demoted KV is dropped
/// at the source, and the slot retires only once empty.
///
/// Routing sees lifecycle state: every shipped [`RoutingPolicy`] places
/// only on Active slots, and the engine enforces it even against a
/// misbehaving policy. This is the crate's one lockstep cluster loop:
/// the fixed [`ClusterEngine`](crate::cluster::ClusterEngine) is this
/// engine with every slot Active and the never-scaling [`PinnedFleet`]
/// policy, and a 1-slot pinned run is bit-identical to
/// [`ServeEngine::run_trace`] — pinned by a golden test.
///
/// Billing is by utilization: a slot bills its busy seconds plus any
/// cold starts it paid, not the run's wall clock — the
/// [`ElasticReport`] compares that against what a statically-provisioned
/// fleet would have billed.
///
/// [`PinnedFleet`]: super::PinnedFleet
#[derive(Debug)]
pub struct ElasticClusterEngine {
    engines: Vec<ServeEngine>,
    lifecycles: Vec<DeploymentLifecycle>,
    routing: Box<dyn RoutingPolicy>,
    autoscale: Box<dyn AutoscalePolicy>,
    config: ElasticConfig,
    /// Per-slot `(hourly cost USD, full-utilization watts)`: the first
    /// for routing views, the second for billing.
    costs: Vec<(f64, f64)>,
    /// Per-slot purchase price, for billing.
    prices: Vec<f64>,
}

impl ElasticClusterEngine {
    /// Assembles an elastic cluster. Slots `0..initial_active` start
    /// Active, the rest Retired; each slot's cold start is priced from
    /// its own system (weight bytes over aggregate device bandwidth).
    ///
    /// # Panics
    ///
    /// Panics if `deployments` is empty, `initial_active` is not in
    /// `1..=deployments.len()`, or `min_active` is not in
    /// `1..=initial_active`.
    pub fn new(
        mut deployments: Vec<ServeEngine>,
        routing: Box<dyn RoutingPolicy>,
        autoscale: Box<dyn AutoscalePolicy>,
        config: ElasticConfig,
    ) -> Self {
        assert!(!deployments.is_empty(), "a cluster needs at least one deployment");
        assert!(
            (1..=deployments.len()).contains(&config.initial_active),
            "initial_active must be in 1..=deployment count"
        );
        assert!(
            (1..=config.initial_active).contains(&config.min_active),
            "min_active must be in 1..=initial_active"
        );
        for (i, d) in deployments.iter_mut().enumerate() {
            d.set_deployment(DeploymentId(i as u32));
        }
        // Identical-fingerprint slots share one memo table, so a
        // scale-up warm-starts from what its Active twins already
        // computed instead of re-paying every memoization miss.
        let mut groups: HashMap<u64, Arc<SharedStepCache>> = HashMap::new();
        for eng in deployments.iter_mut() {
            let shared = groups.entry(eng.system_fingerprint()).or_default().clone();
            eng.set_shared_cache(shared);
        }
        let lifecycles = deployments
            .iter()
            .enumerate()
            .map(|(i, eng)| {
                let model = ColdStartModel::for_deployment(eng, config.provision_s);
                if i < config.initial_active {
                    DeploymentLifecycle::active(model)
                } else {
                    DeploymentLifecycle::retired(model)
                }
            })
            .collect();
        // The system spec never changes mid-run, so each slot's price is
        // computed once.
        let costs = deployments
            .iter()
            .map(|eng| {
                let spec = eng.system().spec();
                let power_w = hilos_metrics::provisioned_power_w(spec);
                (hilos_metrics::hourly_cost_usd(spec.total_price_usd(), power_w), power_w)
            })
            .collect();
        let prices = deployments.iter().map(|e| e.system().spec().total_price_usd()).collect();
        ElasticClusterEngine {
            engines: deployments,
            lifecycles,
            routing,
            autoscale,
            config,
            costs,
            prices,
        }
    }

    /// Number of deployment slots (provisioned or not).
    pub fn deployment_count(&self) -> usize {
        self.engines.len()
    }

    /// The active routing policy's name.
    pub fn routing_name(&self) -> &'static str {
        self.routing.name()
    }

    /// Slot `d`'s current lifecycle state.
    pub fn lifecycle_state(&self, d: usize) -> LifecycleState {
        self.lifecycles[d].state()
    }

    /// Slot `d`'s cold-start price.
    pub fn cold_start(&self, d: usize) -> &ColdStartModel {
        self.lifecycles[d].cold_start()
    }

    /// The deployments, in slot order.
    pub fn deployments(&self) -> &[ServeEngine] {
        &self.engines
    }

    /// The read-only per-slot views routing and autoscaling decide on.
    fn slot_views(&self, states: &[RunState], dispatched: &[u64]) -> Vec<DeploymentView> {
        self.engines
            .iter()
            .zip(states)
            .zip(dispatched.iter().zip(&self.costs))
            .zip(&self.lifecycles)
            .map(|(((eng, st), (&dispatched, &(hourly_cost_usd, _))), lc)| {
                let ledger = eng.ledger();
                DeploymentView {
                    id: eng.deployment().0,
                    queued: st.queued_len(),
                    prefilling: st.prefilling_len(),
                    decoding: st.decoding_len(),
                    max_batch: eng.config().max_batch,
                    pressure: ledger.pressure(),
                    placeable_free_bytes: ledger.placeable_free(),
                    bandwidth_weight: ledger.total_weight(),
                    dispatched,
                    prefix_hit_rate: eng.prefix_hit_rate(),
                    lifecycle: lc.state(),
                    hourly_cost_usd,
                }
            })
            .collect()
    }

    /// Least-loaded Active slot (ties to the lower index) — the fallback
    /// target when a routing policy misbehaves. The engine never drains
    /// below `min_active >= 1`, so an Active slot always exists.
    fn least_loaded_active(&self, states: &[RunState]) -> usize {
        (0..states.len())
            .filter(|&d| self.lifecycles[d].state() == LifecycleState::Active)
            .min_by_key(|&d| {
                let st = &states[d];
                (st.queued_len() + st.prefilling_len() + st.decoding_len(), d)
            })
            .expect("min_active >= 1 keeps at least one slot Active")
    }

    /// Routes through the policy over lifecycle-aware views, then
    /// validates the answer. An out-of-range pick trips a
    /// `debug_assert!` (a buggy policy should fail loudly in
    /// development); in release builds it is counted into
    /// [`ClusterReport::misrouted`] and clamped to the last slot so the
    /// run can still complete. Last, the lifecycle is *enforced*: a pick
    /// that lands on a non-Active slot is overridden to the least-loaded
    /// Active one.
    fn route_slots(
        &mut self,
        states: &[RunState],
        dispatched: &[u64],
        step: u64,
        request: RouteRequest,
        misrouted: &mut u64,
    ) -> usize {
        let views = self.slot_views(states, dispatched);
        let snapshot = ClusterSnapshot { step, deployments: &views };
        let n = states.len();
        let mut d = self.routing.route(&request, &snapshot);
        if d >= n {
            debug_assert!(
                false,
                "routing policy picked deployment {d} of a {n}-deployment cluster"
            );
            *misrouted += 1;
            d = n - 1;
        }
        if self.lifecycles[d].state() == LifecycleState::Active {
            d
        } else {
            self.least_loaded_active(states)
        }
    }

    /// Serves a trace (sorted by `arrival_step`) across the elastic
    /// fleet to completion.
    ///
    /// Each global step, in order: (1) lifecycle transits advance
    /// (Provisioning→Warming→Active as cold-start thresholds pass);
    /// (2) the autoscale policy sees a [`FleetSnapshot`] and may
    /// provision Retired slots or begin draining Active ones; (3)
    /// arrivals dispatch through the routing policy onto Active slots;
    /// (4) Draining slots evacuate — queued requests wholesale,
    /// in-flight ones `drain_batch` per step with progress retained and
    /// timestamps re-based, demoted KV dropped at the source — and
    /// retire once empty; (5) every slot with work runs one serving
    /// iteration, and requests it preempted are offered back to the
    /// router, which may re-dispatch them (progress retained) onto
    /// another Active slot. An idle fleet jumps to the next arrival, lifecycle
    /// transition, or the autoscaler's pre-warm point, whichever comes
    /// first; once the trace is exhausted the autoscaler is retired and
    /// still-provisioning slots cancel into Retired.
    ///
    /// Step (5) is lazy. A slot whose iteration decoded may open a quiet
    /// window, `(first owed step, last quiet step)`: steps that provably
    /// only decode (see [`crate::serve#quiet-windows`]). Inside it the
    /// slot is skipped and counts as progress. Its owed steps run in one
    /// call once the window is over, or earlier when something touches the
    /// slot: an arrival routed to it, its evacuation while Draining, a
    /// drain migration onto it, or a lifecycle transition written into its
    /// ring. Each catches the slot up to the previous step and closes the
    /// window. A step (5) re-dispatch onto a slot catches it up through the
    /// current step. Routing and autoscaling read only counts a window
    /// cannot change, so the run is bit-identical to advancing every busy
    /// slot on every step.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors, or [`CoreError::SchedulerStalled`]
    /// if every slot with queued work holds it forever with nothing in
    /// flight.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival step.
    pub fn run_trace(&mut self, trace: &[Request]) -> Result<ElasticReport, CoreError> {
        assert!(
            trace.windows(2).all(|w| w[0].arrival_step <= w[1].arrival_step),
            "trace must be sorted by arrival step"
        );
        let n = self.engines.len();
        let hint = self.config.step_seconds_hint;
        let min_active = self.config.min_active;
        let cold_start_steps =
            self.lifecycles.iter().map(|lc| lc.cold_start().total_steps(hint)).max().unwrap_or(1);

        let mut states: Vec<RunState> = self.engines.iter().map(|e| e.new_run_state()).collect();
        let mut dispatched = vec![0u64; n];
        let mut redispatches = 0u64;
        let mut misrouted = 0u64;

        let mut events: Vec<LifecycleEvent> = Vec::new();
        let mut scale_ups = 0u64;
        let mut drains = 0u64;
        let mut retires = 0u64;
        let mut drained_requests = 0u64;
        let mut peak_active = self.config.initial_active;
        let mut cold_start_s = vec![0.0f64; n];

        let mut idx = 0usize;
        let mut gstep = 0u64;
        // Phase A's output, one entry per slot that advanced: its
        // progress and the victims it just preempted.
        let mut advanced: Vec<(usize, StepProgress, Vec<QueueEntry>)> = Vec::new();
        loop {
            // 1: lifecycle transits — cold starts whose thresholds have
            // passed turn Warming/Active.
            for (d, lifecycle) in self.lifecycles.iter_mut().enumerate() {
                for ev in lifecycle.tick(gstep, d as u32) {
                    log_transition(&mut self.engines, &mut states, &mut events, ev)?;
                }
            }
            let active_now =
                self.lifecycles.iter().filter(|l| l.state() == LifecycleState::Active).count();
            peak_active = peak_active.max(active_now);

            // 2: autoscale — skipped once the trace is exhausted (no
            // arrival can ever justify new capacity, and a predictive
            // policy must not re-provision what the tail is retiring).
            if idx < trace.len() {
                let arrivals_now =
                    trace[idx..].iter().take_while(|r| r.arrival_step <= gstep).count();
                let views = self.slot_views(&states, &dispatched);
                let snap = FleetSnapshot {
                    step: gstep,
                    arrivals_this_step: arrivals_now,
                    cold_start_steps,
                    min_active,
                    deployments: &views,
                };
                match self.autoscale.decide(&snap) {
                    ScaleDecision::Hold => {}
                    ScaleDecision::ScaleUp { count } => {
                        for _ in 0..count {
                            // Lowest-indexed Retired slot first.
                            let Some(d) = (0..n)
                                .find(|&d| self.lifecycles[d].state() == LifecycleState::Retired)
                            else {
                                break;
                            };
                            if let Some(ev) =
                                self.lifecycles[d].begin_provision(gstep, hint, d as u32)
                            {
                                log_transition(&mut self.engines, &mut states, &mut events, ev)?;
                                scale_ups += 1;
                                cold_start_s[d] += self.lifecycles[d].cold_start().total_s();
                            }
                        }
                    }
                    ScaleDecision::ScaleDown { count } => {
                        for _ in 0..count {
                            let active: Vec<usize> = (0..n)
                                .filter(|&d| self.lifecycles[d].state() == LifecycleState::Active)
                                .collect();
                            if active.len() <= min_active {
                                break;
                            }
                            // Least-loaded first; ties drain the highest
                            // index (the most recently provisioned spare).
                            let d = *active
                                .iter()
                                .min_by_key(|&&d| {
                                    let st = &states[d];
                                    let load =
                                        st.queued_len() + st.prefilling_len() + st.decoding_len();
                                    (load, usize::MAX - d)
                                })
                                .expect("non-empty active list");
                            if let Some(ev) = self.lifecycles[d].begin_drain(gstep, d as u32) {
                                log_transition(&mut self.engines, &mut states, &mut events, ev)?;
                                drains += 1;
                            }
                        }
                    }
                }
            }

            // 3: dispatch arrivals up to the global serving step.
            while idx < trace.len() && trace[idx].arrival_step <= gstep {
                let req = trace[idx];
                let view = RouteRequest::of(&req, 0, false);
                let d = self.route_slots(&states, &dispatched, gstep, view, &mut misrouted);
                dispatched[d] += 1;
                catch_up(&mut self.engines[d], &mut states[d], gstep)?;
                states[d].emit(DeploymentId(d as u32), req.id, EventKind::Routed);
                self.engines[d].enqueue_arrival(&mut states[d], req);
                idx += 1;
            }

            // 4: live drain — Draining slots evacuate queued work
            // wholesale and in-flight work a batch per step, migrating
            // each request (progress retained, timestamps re-based onto
            // the target's clock, demoted KV dropped at the source), and
            // retire once empty.
            for d in 0..n {
                if self.lifecycles[d].state() != LifecycleState::Draining {
                    continue;
                }
                let (eng, st) = (&mut self.engines[d], &mut states[d]);
                catch_up(eng, st, gstep)?;
                let mut moved = eng.evacuate_queued(st);
                moved.extend(eng.evacuate_in_flight(st, self.config.drain_batch));
                for entry in moved {
                    let view = RouteRequest::of(&entry.req, entry.emitted, true);
                    let target =
                        self.route_slots(&states, &dispatched, gstep, view, &mut misrouted);
                    redispatches += 1;
                    drained_requests += 1;
                    catch_up(&mut self.engines[target], &mut states[target], gstep)?;
                    migrate(&mut self.engines, &mut states, d, target, entry);
                }
                if !states[d].has_work() {
                    if let Some(ev) = self.lifecycles[d].retire(gstep, d as u32) {
                        log_transition(&mut self.engines, &mut states, &mut events, ev)?;
                        retires += 1;
                    }
                }
            }

            // 5: fully idle everywhere — jump time or finish.
            if !states.iter().any(RunState::has_work) {
                if idx >= trace.len() {
                    let pending: Vec<usize> = (0..n)
                        .filter(|&d| {
                            matches!(
                                self.lifecycles[d].state(),
                                LifecycleState::Provisioning | LifecycleState::Warming
                            )
                        })
                        .collect();
                    // Trace exhausted with cold starts still in flight:
                    // cancel them — there is nothing left to serve (the
                    // wasted cold start stays billed; mispredictions
                    // cost money).
                    for d in pending {
                        if let Some(ev) = self.lifecycles[d].retire(gstep, d as u32) {
                            log_transition(&mut self.engines, &mut states, &mut events, ev)?;
                            retires += 1;
                        }
                    }
                    break;
                }
                // Wake at the next arrival, the next lifecycle
                // transition, or the autoscaler's pre-warm point,
                // whichever comes first.
                let mut wake = trace[idx].arrival_step;
                for lc in &self.lifecycles {
                    if let Some(t) = lc.next_transition_step() {
                        wake = wake.min(t);
                    }
                }
                let views = self.slot_views(&states, &dispatched);
                let snap = FleetSnapshot {
                    step: gstep,
                    arrivals_this_step: 0,
                    cold_start_steps,
                    min_active,
                    deployments: &views,
                };
                if let Some(p) = self.autoscale.prewarm_at(&snap) {
                    if p > gstep {
                        wake = wake.min(p);
                    }
                }
                gstep = wake.max(gstep + 1);
                continue;
            }

            // 6: one lockstep iteration of every slot with work, in two
            // phases. Phase A advances each busy slot in place, in
            // deployment-index order; phase B then merges progress and
            // offers fresh victims back to the router in the same order
            // (a victim preempted on a Draining slot re-routes onto an
            // Active one). Their engine re-queued them locally, and
            // draining and re-queuing on the same slot is a no-op, so a
            // router that keeps them local preserves single-engine
            // behavior exactly. Routing waits for phase B so that no
            // victim lands on a slot that has yet to run this step's
            // iteration. A slot inside a quiet window is skipped; one
            // whose window just ended runs its owed steps first, and a
            // decoded iteration may open the next window.
            let mut all_stalled = true;
            for (d, (eng, st)) in self.engines.iter_mut().zip(&mut states).enumerate() {
                if !st.has_work() {
                    continue;
                }
                if st.window.is_some_and(|(_, last)| gstep <= last) {
                    all_stalled = false;
                    continue;
                }
                catch_up(eng, st, gstep)?;
                st.step = gstep;
                let progress = eng.advance_once(st)?;
                if progress == StepProgress::Decoded {
                    let k = eng.quiet_steps_ahead(st);
                    if k > 0 {
                        st.window = Some((gstep + 1, gstep + k));
                    }
                }
                advanced.push((d, progress, st.drain_just_preempted()));
            }

            for (d, progress, moved) in advanced.drain(..) {
                if progress != StepProgress::Stalled {
                    all_stalled = false;
                }
                for entry in moved {
                    let view = RouteRequest::of(&entry.req, entry.emitted, true);
                    let target =
                        self.route_slots(&states, &dispatched, gstep, view, &mut misrouted);
                    catch_up(&mut self.engines[target], &mut states[target], gstep + 1)?;
                    if target == d {
                        self.engines[d].requeue(&mut states[d], entry);
                    } else {
                        redispatches += 1;
                        migrate(&mut self.engines, &mut states, d, target, entry);
                    }
                }
            }
            if all_stalled {
                if idx >= trace.len() {
                    return Err(CoreError::SchedulerStalled {
                        queued: states.iter().map(RunState::queued_len).sum(),
                    });
                }
                gstep = trace[idx].arrival_step;
                continue;
            }
            gstep += 1;
        }

        let deployments: Vec<_> =
            self.engines.iter().zip(states).map(|(eng, st)| eng.finish(st)).collect();
        let bills: Vec<SlotBill> = (0..n)
            .map(|d| SlotBill {
                deployment: d as u32,
                price_usd: self.prices[d],
                power_w: self.costs[d].1,
                billed_seconds: deployments[d].elapsed_s + cold_start_s[d],
            })
            .collect();
        let cold_start_s_total = cold_start_s.iter().sum();
        Ok(ElasticReport {
            cluster: ClusterReport::new(
                self.routing.name().to_string(),
                deployments,
                dispatched,
                redispatches,
                misrouted,
            ),
            autoscale: self.autoscale.name().to_string(),
            events,
            scale_ups,
            drains,
            retires,
            drained_requests,
            peak_active,
            bills,
            cold_start_s_total,
        })
    }
}

/// Everything one elastic cluster run reports: the full
/// [`ClusterReport`] plus the lifecycle audit trail and the utilization
/// bill.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticReport {
    /// The underlying cluster serving report (latencies, goodput,
    /// per-deployment detail).
    pub cluster: ClusterReport,
    /// The autoscale policy that sized the fleet.
    pub autoscale: String,
    /// Every lifecycle transition, in step order.
    pub events: Vec<LifecycleEvent>,
    /// Slots cold-started during the run.
    pub scale_ups: u64,
    /// Drains begun during the run.
    pub drains: u64,
    /// Slots retired during the run (drain completions and cancelled
    /// cold starts).
    pub retires: u64,
    /// Requests migrated off draining slots (progress retained).
    pub drained_requests: u64,
    /// Most slots simultaneously Active at any step — what a static
    /// fleet provisioned for this trace would have had to buy.
    pub peak_active: usize,
    /// Per-slot utilization bills: busy seconds plus paid cold starts.
    pub bills: Vec<SlotBill>,
    /// Total cold-start seconds billed across the run.
    pub cold_start_s_total: f64,
}

impl ElasticReport {
    /// The fleet's utilization bill.
    pub fn fleet_bill(&self) -> FleetBill {
        FleetBill { slots: self.bills.clone() }
    }

    /// USD per 1000 SLO-met tokens under utilization billing — the
    /// metric the elastic fleet is gated on against a reserved fleet.
    pub fn cost_per_1k_goodput_tokens(&self) -> f64 {
        self.fleet_bill().cost_per_1k_tokens(self.cluster.goodput_tokens())
    }

    /// Requests lost by the run: rejected as unplaceable plus shed by
    /// overload policies. The elastic gate requires zero — scaling and
    /// draining must never cost a request.
    pub fn lost(&self) -> usize {
        self.cluster.rejected_len() + self.cluster.shed_len()
    }
}
