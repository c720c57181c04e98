//! The elastic cluster engine: the crate's one serving loop — lockstep
//! stepping, routing, cross-deployment migration and stall detection —
//! with a deployment lifecycle, an autoscaler and utilization billing
//! around it. A fixed cluster is this engine built by
//! [`ElasticClusterEngine::pinned`], under [`PinnedFleet`], and
//! [`ServeEngine::run_trace`] runs it over a one-slot pinned fleet.

use super::autoscale::{AutoscalePolicy, FleetSnapshot, PinnedFleet, ScaleDecision};
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
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

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

/// A slot's load: queued plus in-flight requests.
fn load(st: &RunState) -> usize {
    st.queued_len() + st.prefilling_len() + st.decoding_len()
}

/// Fleet-elasticity knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticConfig {
    /// Slots provisioned (Active) before the trace starts; the rest
    /// begin Retired and wait for a scale-up.
    pub initial_active: usize,
    /// In-flight requests a draining slot evacuates per step — draining
    /// is *stepwise*: the slot keeps serving what it still holds while
    /// the cluster migrates this many requests per step.
    pub drain_batch: usize,
}

impl ElasticConfig {
    /// The engine never drains the fleet below this many Active slots: a
    /// cluster must always be able to serve.
    pub const MIN_ACTIVE: usize = 1;
    /// Container/VM provisioning seconds of a cold start (the part that
    /// does not depend on model size or device bandwidth).
    pub const PROVISION_S: f64 = 30.0;
    /// Seconds one global serving step stands for when converting
    /// cold-start seconds to step thresholds.
    pub const STEP_SECONDS_HINT: f64 = 0.25;

    /// A config starting `initial_active` slots Active, with the
    /// defaults for everything else.
    pub fn new(initial_active: usize) -> Self {
        ElasticConfig { initial_active, ..ElasticConfig::default() }
    }
}

impl Default for ElasticConfig {
    /// One initial slot and four evacuations per drain step.
    fn default() -> Self {
        ElasticConfig { initial_active: 1, drain_batch: 4 }
    }
}

/// One [`Fleet::run`] call's state, beside the fleet's slots — what
/// [`RunState`] is to [`ServeEngine::advance_once`].
pub(crate) struct FleetRun<'t> {
    trace: &'t [Request],
    /// The arrival cursor: `trace[next..]` is still to be dispatched.
    next: usize,
    /// The global serving step.
    gstep: u64,
    pub(crate) states: Vec<RunState>,
    dispatched: Vec<u64>,
    redispatches: u64,
    misrouted: u64,
    drained_requests: u64,
    /// Every lifecycle transition so far, in step order — the source of
    /// every fleet-sizing count the report carries.
    events: Vec<LifecycleEvent>,
    /// The earliest step a cold start in progress changes state,
    /// `u64::MAX` with none in progress. Every transition passes through
    /// [`Fleet::log_transition`], which recomputes it.
    next_transition: u64,
    /// The first step after the current one that the autoscaler must
    /// see: its [`AutoscalePolicy::next_wake`] after a `Hold`, the next
    /// step after it acted or a slot drained, `u64::MAX` once it is no
    /// longer consulted.
    autoscale_wake: u64,
    /// The routing and autoscaling views, one per slot, built on first
    /// use and then kept: a slot's entry is rebuilt only when `stale`
    /// marks it. Both stay empty on a fleet that never reads them.
    views: Vec<DeploymentView>,
    /// Slots whose view changed since `views` was last refreshed.
    stale: Vec<bool>,
    /// Phase A's output, one entry per slot that just preempted: the
    /// victims it hands phase B. Scratch, reused every step.
    victims: Vec<(usize, Vec<QueueEntry>)>,
}

impl FleetRun<'_> {
    /// Marks slot `d`'s view stale: the loop just changed its queue,
    /// batch, ledger, dispatch count or lifecycle state.
    fn touch(&mut self, d: usize) {
        if let Some(stale) = self.stale.get_mut(d) {
            *stale = true;
        }
    }

    /// Whether the trace still has arrivals to dispatch.
    fn arrivals_left(&self) -> bool {
        self.next < self.trace.len()
    }

    /// The next arrival's step, `u64::MAX` once the trace is exhausted.
    fn next_arrival(&self) -> u64 {
        self.trace.get(self.next).map_or(u64::MAX, |r| r.arrival_step)
    }
}

/// The fleet one lockstep run drives: slots, lifecycles and the two fleet
/// policies, borrowed from an [`ElasticClusterEngine`] — or from one
/// [`ServeEngine`] serving alone, as a one-slot [`PinnedFleet`].
pub(crate) struct Fleet<'a> {
    engines: &'a mut [ServeEngine],
    lifecycles: &'a mut [DeploymentLifecycle],
    routing: &'a mut dyn RoutingPolicy,
    autoscale: &'a mut dyn AutoscalePolicy,
    config: ElasticConfig,
    /// [`AutoscalePolicy::may_scale`], read once.
    scales: bool,
    /// Per-slot hourly cost in USD, for routing views.
    hourly_costs: Vec<f64>,
    /// The slowest slot's full cold start in steps, for the autoscaler.
    cold_start_steps: u64,
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
/// misbehaving policy. This is the crate's one serving loop: a fixed
/// cluster is this engine built by [`ElasticClusterEngine::pinned`],
/// with every slot Active and the never-scaling [`PinnedFleet`] policy,
/// and [`ServeEngine::run_trace`] runs it over a 1-slot pinned fleet.
///
/// Billing is by utilization: a slot bills its busy seconds plus any
/// cold starts it paid, not the run's wall clock — the
/// [`ElasticReport`] compares that against what a statically-provisioned
/// fleet would have billed.
#[derive(Debug)]
pub struct ElasticClusterEngine {
    engines: Vec<ServeEngine>,
    lifecycles: Vec<DeploymentLifecycle>,
    routing: Box<dyn RoutingPolicy>,
    autoscale: Box<dyn AutoscalePolicy>,
    config: ElasticConfig,
}

impl ElasticClusterEngine {
    /// Assembles an elastic cluster. Slots `0..initial_active` start
    /// Active, the rest Retired; each slot's cold start is priced from
    /// its own system (weight bytes over aggregate device bandwidth).
    /// An empty fleet, or an `initial_active` outside
    /// `1..=deployments.len()`, is reported by
    /// [`run_trace`](ElasticClusterEngine::run_trace) as
    /// [`CoreError::InvalidFleet`].
    pub fn new(
        mut deployments: Vec<ServeEngine>,
        routing: Box<dyn RoutingPolicy>,
        autoscale: Box<dyn AutoscalePolicy>,
        config: ElasticConfig,
    ) -> Self {
        for (i, d) in deployments.iter_mut().enumerate() {
            d.set_deployment(DeploymentId(i as u32));
        }
        // Identical-fingerprint slots share one memo table, so a
        // scale-up warm-starts from what its Active twins already
        // computed instead of re-paying every memoization miss.
        let mut groups: HashMap<u64, Rc<RefCell<SharedStepCache>>> = HashMap::new();
        for eng in deployments.iter_mut() {
            let shared = groups.entry(eng.system_fingerprint()).or_default().clone();
            eng.set_shared_cache(shared);
        }
        let lifecycles: Vec<DeploymentLifecycle> = deployments
            .iter()
            .enumerate()
            .map(|(i, eng)| {
                let model = ColdStartModel::for_deployment(eng);
                if i < config.initial_active {
                    DeploymentLifecycle::active(model)
                } else {
                    DeploymentLifecycle::retired(model)
                }
            })
            .collect();
        ElasticClusterEngine { engines: deployments, lifecycles, routing, autoscale, config }
    }

    /// A fixed cluster: every deployment Active from the start under the
    /// never-scaling [`PinnedFleet`], so no lifecycle transition, drain
    /// or cold start ever happens and a run's
    /// [`ElasticReport::cluster`] is all it reports. Deployments keep the
    /// scheduling policy they were built with and are assigned
    /// [`DeploymentId`]s in vector order.
    ///
    /// # Examples
    ///
    /// ```
    /// use hilos_core::cluster::{ElasticClusterEngine, LedgerPressure};
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
    /// let mut cluster = ElasticClusterEngine::pinned(
    ///     vec![deployment(8)?, deployment(4)?],
    ///     Box::new(LedgerPressure::new()),
    /// );
    /// let trace = TraceConfig::azure_mix(32, 7).generate().unwrap();
    /// let report = cluster.run_trace(&trace)?.cluster;
    /// assert_eq!(report.completed() + report.rejected_len(), 32);
    /// # Ok(())
    /// # }
    /// ```
    pub fn pinned(deployments: Vec<ServeEngine>, routing: Box<dyn RoutingPolicy>) -> Self {
        let config = ElasticConfig::new(deployments.len());
        ElasticClusterEngine::new(deployments, routing, Box::new(PinnedFleet), config)
    }

    /// Number of deployment slots (provisioned or not).
    pub fn deployment_count(&self) -> usize {
        self.engines.len()
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

    /// Serves a trace (sorted by `arrival_step`) across the elastic
    /// fleet to completion.
    ///
    /// Each global step runs these stages, in order:
    ///
    /// 1. `tick_lifecycles` — cold starts whose thresholds have passed
    ///    turn Provisioning → Warming → Active.
    /// 2. `autoscale` — while arrivals remain, the autoscale policy sees
    ///    a [`FleetSnapshot`] and may provision Retired slots or begin
    ///    draining Active ones.
    /// 3. `dispatch_arrivals` — arrivals route through the routing
    ///    policy onto Active slots.
    /// 4. `drain` — Draining slots evacuate, queued requests wholesale
    ///    and in-flight ones `drain_batch` per step, with progress
    ///    retained, timestamps re-based and demoted KV dropped at the
    ///    source; a slot retires once empty.
    /// 5. `lockstep` — when any slot has work, every busy slot runs one
    ///    serving iteration (phase A), and the requests each preempted
    ///    are offered back to the router (phase B), which may
    ///    re-dispatch them, progress retained, onto another Active slot.
    /// 6. `idle_wake` — otherwise, a fully idle fleet jumps to the next
    ///    arrival, lifecycle transition or the autoscaler's pre-warm
    ///    point, whichever comes first.
    ///
    /// Once the trace is exhausted and the fleet idle, still-provisioning
    /// slots are cancelled into Retired, and `finish` seals the report,
    /// counting scale-ups, drains, retires, the Active peak and the
    /// cold-start bill off the lifecycle log.
    ///
    /// A fleet whose autoscaler never scales
    /// ([`AutoscalePolicy::may_scale`] is false) never consults it, for a
    /// decision or a pre-warm point. A fleet of one slot has one route
    /// target: it consults no routing policy, writes no `Routed` event,
    /// and its preemption victims stay in the queue its engine re-queued
    /// them to. A one-slot pinned fleet is how [`ServeEngine::run_trace`]
    /// serves.
    ///
    /// `lockstep` is lazy. A slot whose iteration decoded may open a
    /// quiet window, `(first owed step, last quiet step)`: steps that
    /// provably only decode (see [`crate::serve#quiet-windows`]). Inside
    /// it the slot is skipped and counts as progress. Its owed steps run
    /// in one call once the window is over, or earlier when something
    /// touches the slot: an arrival routed to it, its evacuation while
    /// Draining, a drain migration onto it, or a lifecycle transition
    /// written into its ring. Each catches the slot up to the previous
    /// step and closes the window. A phase-B re-dispatch onto a slot
    /// catches it up through the current step. Routing and autoscaling
    /// read only counts a window cannot change, so the run is
    /// bit-identical to advancing every busy slot on every step.
    ///
    /// One wake rule then picks the next step for every fleet, pinned or
    /// scaling: the next one if any slot ran, else the earliest of the
    /// next arrival, the autoscaler's wake, the next lifecycle
    /// transition and the first step past the earliest window end. The
    /// autoscaler's wake is its [`AutoscalePolicy::next_wake`] after a
    /// `Hold`, the next step after it acted or a slot drained, and never
    /// for a policy that is not consulted. Every step skipped would have
    /// changed nothing: no slot runs, nothing arrives or transitions, and
    /// the policy would have held with its state unchanged. The stages
    /// left to run on a visited step do only what is due: lifecycles
    /// tick from the run's next transition step on, and the routing and
    /// autoscaling views are kept across steps, each slot's rebuilt only
    /// after the loop changed it.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidFleet`] if the fleet is empty or its
    /// `initial_active` is not in `1..=deployment_count()`;
    /// [`CoreError::UnsortedTrace`] if the trace is not sorted by
    /// arrival step; simulation errors; or
    /// [`CoreError::SchedulerStalled`] if every slot with queued work
    /// holds it forever with nothing in flight.
    pub fn run_trace(&mut self, trace: &[Request]) -> Result<ElasticReport, CoreError> {
        let run = Fleet::new(
            &mut self.engines,
            &mut self.lifecycles,
            self.routing.as_mut(),
            self.autoscale.as_mut(),
            self.config,
        )
        .run(trace)?;
        Ok(self.finish(run))
    }

    /// Seals the run into its report. One fold over the lifecycle log
    /// yields every fleet-sizing count: each Provisioning entry is a
    /// scale-up and bills its slot's cold start, each Draining entry a
    /// drain, each Retired entry a retire, and the Active count replayed
    /// from `initial_active` (+1 on Active, −1 on Draining) peaks at
    /// `peak_active`.
    fn finish(&self, run: FleetRun) -> ElasticReport {
        let n = self.engines.len();
        let mut entered = [0u64; 5];
        let mut cold_start_s = vec![0.0f64; n];
        let mut active = self.config.initial_active;
        let mut peak_active = active;
        for ev in &run.events {
            let d = ev.deployment as usize;
            entered[ev.to as usize] += 1;
            match ev.to {
                LifecycleState::Provisioning => {
                    cold_start_s[d] += self.lifecycles[d].cold_start().total_s();
                }
                LifecycleState::Active => {
                    active += 1;
                    peak_active = peak_active.max(active);
                }
                LifecycleState::Draining => active -= 1,
                LifecycleState::Warming | LifecycleState::Retired => {}
            }
        }
        let deployments: Vec<_> =
            self.engines.iter().zip(run.states).map(|(eng, st)| eng.finish(st)).collect();
        let bills: Vec<SlotBill> = (0..n)
            .map(|d| {
                let spec = self.engines[d].system().spec();
                SlotBill {
                    deployment: d as u32,
                    price_usd: spec.total_price_usd(),
                    power_w: hilos_metrics::provisioned_power_w(spec),
                    billed_seconds: deployments[d].elapsed_s + cold_start_s[d],
                }
            })
            .collect();
        ElasticReport {
            cluster: ClusterReport::new(
                self.routing.name().to_string(),
                deployments,
                run.dispatched,
                run.redispatches,
                run.misrouted,
            ),
            autoscale: self.autoscale.name().to_string(),
            events: run.events,
            scale_ups: entered[LifecycleState::Provisioning as usize],
            drains: entered[LifecycleState::Draining as usize],
            retires: entered[LifecycleState::Retired as usize],
            drained_requests: run.drained_requests,
            peak_active,
            bills,
            cold_start_s_total: cold_start_s.iter().sum(),
        }
    }
}

impl<'a> Fleet<'a> {
    /// Borrows a fleet for one run.
    pub(crate) fn new(
        engines: &'a mut [ServeEngine],
        lifecycles: &'a mut [DeploymentLifecycle],
        routing: &'a mut dyn RoutingPolicy,
        autoscale: &'a mut dyn AutoscalePolicy,
        config: ElasticConfig,
    ) -> Self {
        let hourly_costs = engines
            .iter()
            .map(|eng| {
                let spec = eng.system().spec();
                let power_w = hilos_metrics::provisioned_power_w(spec);
                hilos_metrics::hourly_cost_usd(spec.total_price_usd(), power_w)
            })
            .collect();
        let cold_start_steps = lifecycles
            .iter()
            .map(|lc| lc.cold_start().total_steps(ElasticConfig::STEP_SECONDS_HINT))
            .max()
            .unwrap_or(1);
        Fleet {
            scales: autoscale.may_scale(),
            engines,
            lifecycles,
            routing,
            autoscale,
            config,
            hourly_costs,
            cold_start_steps,
        }
    }

    /// The slots currently in `state`, in index order.
    fn slots_in(&self, state: LifecycleState) -> impl Iterator<Item = usize> + use<'_, 'a> {
        (0..self.lifecycles.len()).filter(move |&d| self.lifecycles[d].state() == state)
    }

    /// The earliest step any slot's cold start changes state.
    fn next_transition(&self) -> u64 {
        self.lifecycles
            .iter()
            .filter_map(DeploymentLifecycle::next_transition_step)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Slot `d`'s read-only view, as routing and autoscaling see it.
    fn slot_view(&self, run: &FleetRun, d: usize) -> DeploymentView {
        let (eng, st) = (&self.engines[d], &run.states[d]);
        let ledger = eng.ledger();
        DeploymentView {
            id: eng.deployment().0,
            queued: st.queued_len(),
            prefilling: st.prefilling_len(),
            decoding: st.decoding_len(),
            max_batch: eng.config().max_batch,
            placeable_free_bytes: ledger.placeable_free(),
            bandwidth_weight: ledger.total_weight(),
            prefix_hit_rate: eng.prefix_hit_rate(),
            lifecycle: self.lifecycles[d].state(),
            hourly_cost_usd: self.hourly_costs[d],
        }
    }

    /// Every slot's view, built afresh: the kept views' first fill and
    /// their reference.
    fn slot_views(&self, run: &FleetRun) -> Vec<DeploymentView> {
        (0..self.engines.len()).map(|d| self.slot_view(run, d)).collect()
    }

    /// Brings the kept views up to date: the first call builds them all,
    /// later calls rebuild only the stale slots. A quiet window's
    /// catch-up changes no view field — a window through chunked prefill
    /// moves only chunk cursors, while the prefilling and decoding
    /// counts, the ledger and the queue stay put — so a slot left
    /// unmarked still reads what a fresh build would.
    fn refresh_views(&self, run: &mut FleetRun) {
        if run.views.is_empty() {
            run.views = self.slot_views(run);
            run.stale = vec![false; run.views.len()];
        } else {
            for d in 0..run.views.len() {
                if std::mem::take(&mut run.stale[d]) {
                    run.views[d] = self.slot_view(run, d);
                }
            }
        }
        debug_assert!(run.views == self.slot_views(run), "a kept slot view went stale unmarked");
    }

    /// Asks the autoscale policy `ask` over the one [`FleetSnapshot`] of
    /// the fleet at the current step — `decide` and the `next_wake` or
    /// `prewarm_at` call after it see the same picture.
    fn consult_autoscaler<R>(
        &mut self,
        run: &mut FleetRun,
        arrivals_this_step: usize,
        ask: impl FnOnce(&mut dyn AutoscalePolicy, &FleetSnapshot) -> R,
    ) -> R {
        self.refresh_views(run);
        let snapshot = FleetSnapshot::new(
            run.gstep,
            arrivals_this_step,
            self.cold_start_steps,
            ElasticConfig::MIN_ACTIVE,
            &run.views,
        );
        ask(&mut *self.autoscale, &snapshot)
    }

    /// Routes through the policy over lifecycle-aware views, then
    /// validates the answer. An out-of-range pick trips a
    /// `debug_assert!` (a buggy policy should fail loudly in
    /// development); in release builds it is counted into
    /// [`ClusterReport::misrouted`] and clamped to the last slot so the
    /// run can still complete. Last, the lifecycle is *enforced*: a pick
    /// that lands on a non-Active slot is overridden to the least-loaded
    /// Active one (ties to the lower index; the engine never drains below
    /// [`ElasticConfig::MIN_ACTIVE`], so one exists). A one-slot fleet
    /// has one target, always Active, and consults nothing.
    fn route_slots(&mut self, run: &mut FleetRun, request: RouteRequest) -> usize {
        let n = run.states.len();
        if n == 1 {
            return 0;
        }
        self.refresh_views(run);
        let snapshot = ClusterSnapshot { deployments: &run.views };
        let mut d = self.routing.route(&request, &snapshot);
        if d >= n {
            debug_assert!(
                false,
                "routing policy picked deployment {d} of a {n}-deployment cluster"
            );
            run.misrouted += 1;
            d = n - 1;
        }
        if self.lifecycles[d].state() == LifecycleState::Active {
            return d;
        }
        self.slots_in(LifecycleState::Active)
            .min_by_key(|&d| (load(&run.states[d]), d))
            .expect("MIN_ACTIVE >= 1 keeps at least one slot Active")
    }

    /// Records a lifecycle transition: into the run's log, and into the
    /// slot's event ring as the matching trace event (the ring carries
    /// the serving-interleaved view). The slot catches up first, so the
    /// event lands after every step before the transition's. Every
    /// transition passes through here, so this is where the run's next
    /// transition step is recomputed and the slot's view marked stale.
    fn log_transition(&mut self, run: &mut FleetRun, ev: LifecycleEvent) -> Result<(), CoreError> {
        let d = ev.deployment as usize;
        catch_up(&mut self.engines[d], &mut run.states[d], ev.step)?;
        let kind = match ev.to {
            LifecycleState::Provisioning => EventKind::ScaleUp,
            LifecycleState::Warming => EventKind::Warming,
            LifecycleState::Active => EventKind::Activated,
            LifecycleState::Draining => EventKind::Drain,
            LifecycleState::Retired => EventKind::Retired,
        };
        run.states[d].emit(DeploymentId(ev.deployment), NO_REQUEST, kind);
        run.events.push(ev);
        run.next_transition = self.next_transition();
        run.touch(d);
        Ok(())
    }

    /// Retires slot `d` at the current step — a drain completing, or a
    /// cold start cancelled — and logs the transition.
    fn retire(&mut self, run: &mut FleetRun, d: usize) -> Result<(), CoreError> {
        match self.lifecycles[d].retire(run.gstep, d as u32) {
            Some(ev) => self.log_transition(run, ev),
            None => Ok(()),
        }
    }

    /// Moves `entry` from slot `from` onto slot `to`, progress retained.
    ///
    /// Demoted KV is parked in the *source* deployment's ladder; a
    /// migrated request cannot recall it from another deployment — drop
    /// it there and let the target recompute (booked as wasted prefill).
    /// Deployment clocks are independent busy-time axes (idle gaps are
    /// skipped, so they diverge freely), so the entry's timestamps are
    /// re-based by the clock delta: the *durations* accrued so far
    /// survive the move — TTFT/e2e then sum busy time spent on each
    /// deployment, stay non-negative, and keep `first_token_s <=
    /// finished_s`.
    fn migrate(&mut self, run: &mut FleetRun, from: usize, to: usize, mut entry: QueueEntry) {
        run.touch(from);
        run.touch(to);
        self.engines[from].forget_demoted(&mut run.states[from], entry.req.id);
        let shift = run.states[to].clock - run.states[from].clock;
        let st = &mut run.states[to];
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
        self.engines[to].requeue(st, entry);
    }

    /// The one re-dispatch path, for drained requests and preemption
    /// victims alike: routes `entry`, off slot `from`, catches the target
    /// up to global step `until`, then re-queues the entry locally when
    /// the router keeps it on `from`, or migrates it and counts a
    /// re-dispatch.
    fn redispatch(
        &mut self,
        run: &mut FleetRun,
        from: usize,
        entry: QueueEntry,
        until: u64,
    ) -> Result<(), CoreError> {
        let to = self.route_slots(run, RouteRequest::of(&entry.req, true));
        catch_up(&mut self.engines[to], &mut run.states[to], until)?;
        if to == from {
            run.touch(from);
            self.engines[from].requeue(&mut run.states[from], entry);
        } else {
            run.redispatches += 1;
            self.migrate(run, from, to, entry);
        }
        Ok(())
    }

    /// Runs the trace to completion over the fleet — the stages
    /// [`ElasticClusterEngine::run_trace`] documents — and returns the
    /// run, every slot idle and every cold start settled.
    pub(crate) fn run<'t>(&mut self, trace: &'t [Request]) -> Result<FleetRun<'t>, CoreError> {
        let deployments = self.engines.len();
        let initial_active = self.config.initial_active;
        if !(1..=deployments).contains(&initial_active) {
            return Err(CoreError::InvalidFleet { deployments, initial_active });
        }
        if let Some(i) = trace.windows(2).position(|w| w[0].arrival_step > w[1].arrival_step) {
            return Err(CoreError::UnsortedTrace { index: i + 1 });
        }
        let mut run = FleetRun {
            trace,
            next: 0,
            gstep: 0,
            states: self.engines.iter().map(ServeEngine::new_run_state).collect(),
            dispatched: vec![0; self.engines.len()],
            redispatches: 0,
            misrouted: 0,
            drained_requests: 0,
            events: Vec::new(),
            next_transition: self.next_transition(),
            autoscale_wake: u64::MAX,
            views: Vec::new(),
            stale: Vec::new(),
            victims: Vec::new(),
        };
        if let [st] = run.states.as_mut_slice() {
            // A lone slot ends every request, so the trace bounds its
            // outcomes; a fleet slot's share is unknown in advance.
            st.reserve_outcomes(trace.len());
        }
        loop {
            self.tick_lifecycles(&mut run)?;
            self.autoscale(&mut run)?;
            self.dispatch_arrivals(&mut run)?;
            self.drain(&mut run)?;
            if run.states.iter().any(RunState::has_work) {
                self.lockstep(&mut run)?;
            } else if run.arrivals_left() {
                self.idle_wake(&mut run);
            } else {
                // Cold starts still in flight are cancelled: there is
                // nothing left to serve, and the wasted cold start stays
                // billed (mispredictions cost money).
                for d in 0..self.lifecycles.len() {
                    if matches!(
                        self.lifecycles[d].state(),
                        LifecycleState::Provisioning | LifecycleState::Warming
                    ) {
                        self.retire(&mut run, d)?;
                    }
                }
                return Ok(run);
            }
        }
    }

    /// Stage 1: cold starts whose thresholds have passed turn Warming,
    /// then Active. Nothing to do before the run's next transition step.
    fn tick_lifecycles(&mut self, run: &mut FleetRun) -> Result<(), CoreError> {
        if run.gstep < run.next_transition {
            return Ok(());
        }
        for d in 0..self.lifecycles.len() {
            for ev in self.lifecycles[d].tick(run.gstep, d as u32) {
                self.log_transition(run, ev)?;
            }
        }
        Ok(())
    }

    /// Stage 2: the autoscale decision, executed. Skipped once the trace
    /// is exhausted: no arrival can ever justify new capacity, and a
    /// predictive policy must not re-provision what the tail is retiring.
    /// A policy that never scales is never consulted. A scale-up
    /// provisions the lowest-indexed Retired slots; a scale-down drains
    /// the least-loaded Active slots (ties drain the highest index, the
    /// most recently provisioned spare), never below
    /// [`ElasticConfig::MIN_ACTIVE`]. After a `Hold` the policy names its
    /// next wake on the same snapshot; after an action the autoscaler
    /// must see the next step.
    fn autoscale(&mut self, run: &mut FleetRun) -> Result<(), CoreError> {
        run.autoscale_wake = u64::MAX;
        if !self.scales || !run.arrivals_left() {
            return Ok(());
        }
        let pending = &run.trace[run.next..];
        let arrivals = pending.iter().take_while(|r| r.arrival_step <= run.gstep).count();
        let (decision, wake) = self.consult_autoscaler(run, arrivals, |p, snap| {
            let decision = p.decide(snap);
            let wake =
                if decision == ScaleDecision::Hold { p.next_wake(snap) } else { snap.step + 1 };
            (decision, wake)
        });
        run.autoscale_wake = wake;
        match decision {
            ScaleDecision::Hold => {}
            ScaleDecision::ScaleUp { count } => {
                for _ in 0..count {
                    let Some(d) = self.slots_in(LifecycleState::Retired).next() else {
                        break;
                    };
                    let hint = ElasticConfig::STEP_SECONDS_HINT;
                    let ev = self.lifecycles[d].begin_provision(run.gstep, hint, d as u32);
                    if let Some(ev) = ev {
                        self.log_transition(run, ev)?;
                    }
                }
            }
            ScaleDecision::ScaleDown { count } => {
                for _ in 0..count {
                    if self.slots_in(LifecycleState::Active).count() <= ElasticConfig::MIN_ACTIVE {
                        break;
                    }
                    let d = self
                        .slots_in(LifecycleState::Active)
                        .min_by_key(|&d| (load(&run.states[d]), usize::MAX - d))
                        .expect("more than MIN_ACTIVE slots are Active");
                    if let Some(ev) = self.lifecycles[d].begin_drain(run.gstep, d as u32) {
                        self.log_transition(run, ev)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Stage 3: every arrival up to the global step routes onto an Active
    /// slot, which catches up first.
    fn dispatch_arrivals(&mut self, run: &mut FleetRun) -> Result<(), CoreError> {
        while let Some(&req) = run.trace.get(run.next).filter(|r| r.arrival_step <= run.gstep) {
            let d = self.route_slots(run, RouteRequest::of(&req, false));
            run.dispatched[d] += 1;
            run.touch(d);
            catch_up(&mut self.engines[d], &mut run.states[d], run.gstep)?;
            if run.states.len() > 1 {
                run.states[d].emit(DeploymentId(d as u32), req.id, EventKind::Routed);
            }
            self.engines[d].enqueue_arrival(&mut run.states[d], req);
            run.next += 1;
        }
        Ok(())
    }

    /// Stage 4, live drain: Draining slots evacuate queued work wholesale
    /// and in-flight work `drain_batch` per step, re-dispatching each
    /// request (a Draining slot is never a route target, so every one
    /// migrates), and retire once empty. A drain changes what the
    /// autoscaler sees, so it must see the next step.
    fn drain(&mut self, run: &mut FleetRun) -> Result<(), CoreError> {
        for d in 0..self.engines.len() {
            if self.lifecycles[d].state() != LifecycleState::Draining {
                continue;
            }
            run.autoscale_wake = run.gstep + 1;
            run.touch(d);
            let (eng, st) = (&mut self.engines[d], &mut run.states[d]);
            catch_up(eng, st, run.gstep)?;
            let mut moved = eng.evacuate_queued(st);
            moved.extend(eng.evacuate_in_flight(st, self.config.drain_batch));
            run.drained_requests += moved.len() as u64;
            for entry in moved {
                self.redispatch(run, d, entry, run.gstep)?;
            }
            if !run.states[d].has_work() {
                self.retire(run, d)?;
            }
        }
        Ok(())
    }

    /// Stage 5: one lockstep iteration of every slot with work, in two
    /// phases. Phase A advances each busy slot in place, in
    /// deployment-index order; phase B then merges progress and offers
    /// fresh victims back to the router in the same order (a victim
    /// preempted on a Draining slot re-routes onto an Active one). Their
    /// engine re-queued them locally, and draining and re-queuing on the
    /// same slot is a no-op, so a router that keeps them local preserves
    /// single-engine behavior exactly. Routing waits for phase B so that
    /// no victim lands on a slot that has yet to run this step's
    /// iteration. A slot inside a quiet window is skipped; one whose
    /// window just ended runs its owed steps first, and a decoded
    /// iteration may open the next window. A one-slot fleet has no
    /// phase B: its victims could only be routed back where they are.
    ///
    /// The run moves to the first step anything can happen on: the
    /// next one when a slot ran, else the earliest of the next arrival,
    /// the autoscaler's wake, the next lifecycle transition and the
    /// first step past the earliest window end. When every busy slot
    /// stalled it moves to the next arrival instead, and fails with
    /// [`CoreError::SchedulerStalled`] if there is none.
    fn lockstep(&mut self, run: &mut FleetRun) -> Result<(), CoreError> {
        let gstep = run.gstep;
        let lone = self.engines.len() == 1;
        let mut all_stalled = true;
        let mut wake = run.next_arrival().min(run.autoscale_wake).min(run.next_transition);
        for (d, (eng, st)) in self.engines.iter_mut().zip(&mut run.states).enumerate() {
            if !st.has_work() {
                continue;
            }
            if let Some((_, last)) = st.window.filter(|&(_, last)| gstep <= last) {
                all_stalled = false;
                wake = wake.min(last + 1);
                continue;
            }
            catch_up(eng, st, gstep)?;
            let progress = eng.advance_once(st)?;
            if let Some(stale) = run.stale.get_mut(d) {
                *stale = true;
            }
            wake = gstep + 1;
            all_stalled &= progress == StepProgress::Stalled;
            if progress == StepProgress::Decoded {
                let k = eng.quiet_steps_ahead(st);
                if k > 0 {
                    st.window = Some((gstep + 1, gstep + k));
                }
            }
            if !lone && !st.just_preempted.is_empty() {
                run.victims.push((d, st.drain_just_preempted()));
            }
        }
        let mut victims = std::mem::take(&mut run.victims);
        for (d, moved) in victims.drain(..) {
            for entry in moved {
                self.redispatch(run, d, entry, gstep + 1)?;
            }
        }
        run.victims = victims;
        if !all_stalled {
            run.gstep = wake;
            return Ok(());
        }
        if !run.arrivals_left() {
            return Err(CoreError::SchedulerStalled {
                queued: run.states.iter().map(RunState::queued_len).sum(),
            });
        }
        run.gstep = run.next_arrival();
        Ok(())
    }

    /// Stage 6: a fully idle fleet with arrivals left wakes at the next
    /// arrival, the next lifecycle transition, or the autoscaler's
    /// pre-warm point, whichever comes first — and at least one step on.
    fn idle_wake(&mut self, run: &mut FleetRun) {
        let prewarm =
            self.scales.then(|| self.consult_autoscaler(run, 0, |p, snap| p.prewarm_at(snap)));
        let prewarm = prewarm.flatten().filter(|&p| p > run.gstep).unwrap_or(u64::MAX);
        let wake = run.next_arrival().min(run.next_transition).min(prewarm);
        run.gstep = wake.max(run.gstep + 1);
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

#[cfg(test)]
mod tests {
    use super::{ElasticClusterEngine, ElasticConfig};
    use crate::cluster::{PinnedFleet, RoundRobin};
    use crate::runner::CoreError;
    use crate::serve::engine::tests::{run_stepwise, system};
    use crate::serve::{ServeConfig, ServeEngine};
    use hilos_llm::{DeploymentId, Request, TraceConfig};
    use hilos_trace::EventKind;

    /// The pinned fleet's global jump is exact: a two-slot fleet of
    /// `Fifo` engines under `RoundRobin`, both slots opening windows,
    /// serves each slot's share of the trace exactly as the stepwise
    /// reference serves that share alone (the fleet adds `Routed`
    /// events, windows split differently, and twin slots share a memo).
    #[test]
    fn pinned_fleet_jumps_match_each_slot_run_alone() {
        let trace = TraceConfig::azure_mix(64, 5).with_mean_interarrival(12).generate().unwrap();
        let config = ServeConfig::new(8).with_tracing(1 << 16);
        let build = || ServeEngine::new(system(8), config.clone()).unwrap();
        let mut cluster =
            ElasticClusterEngine::pinned(vec![build(), build()], Box::new(RoundRobin::new()));
        let report = cluster.run_trace(&trace).unwrap().cluster;
        for (d, mut slot) in report.deployments.into_iter().enumerate() {
            let ids: Vec<u64> = slot.outcomes.iter().map(|o| o.id).collect();
            let share: Vec<Request> =
                trace.iter().filter(|r| ids.contains(&r.id)).copied().collect();
            let mut alone = build();
            alone.set_deployment(DeploymentId(d as u32));
            let reference = run_stepwise(&mut alone, &share);
            assert!(slot.windowed_steps > reference.steps / 2, "slot {d} opened few windows");
            slot.windowed_steps = 0;
            slot.step_cache_entries = reference.step_cache_entries;
            slot.events.retain(|e| e.kind != EventKind::Routed);
            assert_eq!(slot.events_dropped, 0);
            assert!(slot == reference, "slot {d} diverged from its share run alone");
        }
    }

    /// A fleet with no slot, or one that starts no slot Active or more
    /// slots Active than it has, fails its run with a typed error before
    /// the first step, and the engine stays usable for the same answer.
    #[test]
    fn invalid_fleets_fail_their_run_without_panicking() {
        let trace = TraceConfig::azure_mix(4, 5).generate().unwrap();
        let build = || ServeEngine::new(system(4), ServeConfig::new(4)).unwrap();
        let invalid = |deployments, initial_active| {
            Err(CoreError::InvalidFleet { deployments, initial_active })
        };

        let mut empty = ElasticClusterEngine::pinned(vec![], Box::new(RoundRobin::new()));
        assert_eq!(empty.run_trace(&trace), invalid(0, 0));
        assert_eq!(empty.run_trace(&[]), invalid(0, 0));

        for initial_active in [0, 3] {
            let mut fleet = ElasticClusterEngine::new(
                vec![build(), build()],
                Box::new(RoundRobin::new()),
                Box::new(PinnedFleet),
                ElasticConfig::new(initial_active),
            );
            assert_eq!(fleet.run_trace(&trace), invalid(2, initial_active));
        }
    }
}
