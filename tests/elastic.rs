//! Elastic-cluster integration tests: the autoscaling layer end to end —
//! golden 1-slot equivalence (elasticity off adds no simulation drift),
//! the cold-start lifecycle of a scaled-up slot, planned live drain with
//! zero lost requests and clean source ledgers, and the bursty
//! keep-alive run that scales up, drains and retires without dropping
//! anything.

use hilos::core::cluster::{
    AutoscalePolicy, ClusterSnapshot, CostNormalizedPressure, ElasticClusterEngine, ElasticConfig,
    FleetSnapshot, HybridHistogramKeepAlive, LedgerPressure, LifecycleState, PinnedFleet,
    RoundRobin, RouteRequest, RoutingPolicy, ScaleDecision, TargetPressureScaler,
};
use hilos::core::{
    Fifo, HilosConfig, HilosSystem, PrefixCacheConfig, PriorityPreempt, SchedulingPolicy,
    ServeConfig, ServeEngine,
};
use hilos::llm::{presets, TraceConfig};
use hilos::platform::SystemSpec;

fn hilos(n: usize) -> HilosSystem {
    HilosSystem::new(&SystemSpec::a100_smartssd(n), &presets::opt_30b(), &HilosConfig::new(n))
        .unwrap()
        .with_sim_layers(1)
}

use hilos::core::outcome_lifecycle_fnv as outcome_hash;

/// Golden equivalence: a 1-slot elastic cluster under the never-scaling
/// [`PinnedFleet`] policy serves the seeded Azure-mix trace
/// bit-identically to the non-cluster engine — the exact FNV constant
/// `tests/serving.rs` and `tests/cluster.rs` pin. With elasticity off,
/// the lifecycle/autoscale/billing machinery adds no simulation drift.
#[test]
fn pinned_single_slot_elastic_cluster_stays_on_the_golden_pin() {
    let trace = TraceConfig::azure_mix(512, 42).generate().unwrap();
    let mut eng = ServeEngine::new(hilos(8), ServeConfig::new(16)).unwrap();
    let direct = eng.run_trace(&trace).unwrap();
    assert_eq!(outcome_hash(&direct.outcomes), 0x988a698736a9c8fe, "pre-cluster pin drifted");

    let mut elastic = ElasticClusterEngine::new(
        vec![ServeEngine::new(hilos(8), ServeConfig::new(16)).unwrap()],
        Box::new(LedgerPressure::new()),
        Box::new(PinnedFleet),
        ElasticConfig::new(1),
    );
    let report = elastic.run_trace(&trace).unwrap();
    assert_eq!(report.cluster.deployments[0], direct, "elastic layer drifted");
    assert_eq!(outcome_hash(&report.cluster.deployments[0].outcomes), 0x988a698736a9c8fe);
    assert_eq!(report.autoscale, "pinned-fleet");
    assert!(report.events.is_empty(), "a pinned fleet has no lifecycle transitions");
    assert_eq!((report.scale_ups, report.drains, report.retires), (0, 0, 0));
    assert_eq!(report.drained_requests, 0);
    assert_eq!(report.peak_active, 1);
    assert_eq!(report.cold_start_s_total, 0.0, "the initial fleet bills no cold start");
    // Utilization billing: the one slot bills exactly its busy clock.
    assert_eq!(report.bills.len(), 1);
    assert_eq!(report.bills[0].billed_seconds, direct.elapsed_s);
    assert!(report.fleet_bill().cost_usd() > 0.0);
    assert!(report.cost_per_1k_goodput_tokens().is_finite());
}

/// A misbehaving router: always picks the last slot, whatever its
/// lifecycle state.
#[derive(Debug)]
struct LastSlot;

impl RoutingPolicy for LastSlot {
    fn name(&self) -> &'static str {
        "last-slot"
    }

    fn route(&mut self, _request: &RouteRequest, snapshot: &ClusterSnapshot<'_>) -> usize {
        snapshot.deployments.len() - 1
    }
}

/// Lifecycle enforcement: a router that keeps picking a Retired slot is
/// overridden onto the least-loaded Active one. With one Active slot of
/// three under [`PinnedFleet`], every request lands on slot 0; the
/// override is not a misroute (the pick was in range), nothing is lost,
/// and the traced event stream still balances.
#[test]
fn routing_onto_a_retired_slot_falls_back_to_an_active_one() {
    let trace = TraceConfig::azure_mix(96, 42).generate().unwrap();
    let serve = || ServeConfig::new(8).with_tracing(1 << 20);
    let mut elastic = ElasticClusterEngine::new(
        (0..3).map(|_| ServeEngine::new(hilos(8), serve()).unwrap()).collect(),
        Box::new(LastSlot),
        Box::new(PinnedFleet),
        ElasticConfig::new(1),
    );
    assert_eq!(elastic.lifecycle_state(2), LifecycleState::Retired);
    let report = elastic.run_trace(&trace).unwrap();

    assert_eq!(report.cluster.dispatched, vec![96, 0, 0], "a request reached a Retired slot");
    assert!(report.cluster.deployments[1].outcomes.is_empty());
    assert!(report.cluster.deployments[2].outcomes.is_empty());
    assert_eq!(report.cluster.misrouted, 0);
    assert_eq!(report.cluster.redispatches, 0, "victims fall back onto their own slot");
    assert_eq!(report.lost(), 0);
    assert_eq!(report.cluster.completed(), 96);

    let rings: Vec<&[hilos::trace::Event]> =
        report.cluster.deployments.iter().map(|d| d.events.as_slice()).collect();
    let cons = hilos::trace::check_conservation(&rings);
    assert!(cons.holds(), "event conservation violated under fallback routing: {cons:?}");
    assert_eq!(cons.arrived, 96);
    assert_eq!(cons.completed, 96);
}

/// A scripted autoscaler for directed lifecycle tests: provisions slot
/// ≥1 at one step, drains one slot at another.
#[derive(Debug)]
struct ScriptedScaler {
    up_at: Option<u64>,
    down_at: Option<u64>,
}

impl AutoscalePolicy for ScriptedScaler {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn decide(&mut self, snap: &FleetSnapshot<'_>) -> ScaleDecision {
        if let Some(t) = self.up_at {
            if snap.step >= t {
                self.up_at = None;
                return ScaleDecision::ScaleUp { count: 1 };
            }
        }
        if let Some(t) = self.down_at {
            if snap.step >= t {
                self.down_at = None;
                return ScaleDecision::ScaleDown { count: 1 };
            }
        }
        ScaleDecision::Hold
    }
}

/// Cold start end to end: a scripted scale-up walks slot 1 through
/// Provisioning → Warming → Active at exactly the steps the
/// [`ColdStartModel`] prices, the newly Active slot then serves traffic,
/// and its bill carries the cold-start seconds on top of busy time.
#[test]
fn scaled_up_slot_cold_starts_on_schedule_and_serves() {
    // Steady contended arrivals so there is traffic long after the cold
    // start completes.
    let trace = TraceConfig { mean_interarrival_steps: 8, ..TraceConfig::azure_mix(256, 42) }
        .generate()
        .unwrap();
    let config = ElasticConfig::new(1);
    let mut elastic = ElasticClusterEngine::new(
        vec![
            ServeEngine::new(hilos(8), ServeConfig::new(8)).unwrap(),
            ServeEngine::new(hilos(8), ServeConfig::new(8)).unwrap(),
        ],
        Box::new(LedgerPressure::new()),
        Box::new(ScriptedScaler { up_at: Some(40), down_at: None }),
        config,
    );
    // The cold-start model prices slot 1 off its own system: container
    // provision plus weights over aggregate device bandwidth.
    let cold = *elastic.cold_start(1);
    assert!(cold.provision_s == config.provision_s && cold.weight_load_s > 0.0);
    let provision_steps = cold.provision_steps(config.step_seconds_hint);
    let warm_steps = cold.warm_steps(config.step_seconds_hint);
    assert_eq!(elastic.lifecycle_state(1), LifecycleState::Retired);

    let report = elastic.run_trace(&trace).unwrap();
    assert_eq!(elastic.lifecycle_state(1), LifecycleState::Active);
    assert_eq!(report.scale_ups, 1);
    assert_eq!(report.peak_active, 2);
    assert_eq!(report.cold_start_s_total, cold.total_s());

    // The audit trail shows the full transit at the priced thresholds.
    let slot1: Vec<_> = report.events.iter().filter(|e| e.deployment == 1).collect();
    assert_eq!(
        slot1.iter().map(|e| e.to).collect::<Vec<_>>(),
        vec![LifecycleState::Provisioning, LifecycleState::Warming, LifecycleState::Active]
    );
    let provisioned_at = slot1[0].step;
    assert!(provisioned_at >= 40);
    assert_eq!(slot1[1].step, provisioned_at + provision_steps);
    assert_eq!(slot1[2].step, provisioned_at + provision_steps + warm_steps);

    // The scaled-up slot actually served: dispatches and outcomes.
    assert!(report.cluster.dispatched[1] > 0, "slot 1 never took traffic");
    assert!(!report.cluster.deployments[1].outcomes.is_empty());
    // No request was dispatched to slot 1 before it turned Active: every
    // outcome it served has a completion after the Active step's clock
    // (slot clocks only advance under work, so a nonzero busy clock
    // suffices), and nothing was lost cluster-wide.
    assert_eq!(report.cluster.completed(), 256);
    assert_eq!(report.lost(), 0);
    // Billing: slot 1 bills busy time plus its whole cold start.
    assert_eq!(
        report.bills[1].billed_seconds,
        report.cluster.deployments[1].elapsed_s + cold.total_s()
    );
    assert_eq!(report.bills[0].billed_seconds, report.cluster.deployments[0].elapsed_s);
}

/// Planned live drain: a scripted scale-down while both slots are full
/// of in-flight work migrates every evacuee with retained progress,
/// leaves the source's shard ledger and residency ladder empty, and
/// retires the slot — without losing a single request.
#[test]
fn planned_drain_migrates_in_flight_work_and_empties_the_source() {
    let trace = TraceConfig { mean_interarrival_steps: 6, ..TraceConfig::azure_mix(192, 42) }
        .generate()
        .unwrap();
    // Prefix caching on, so drained work exercises the demoted-KV
    // forget path too (parked victim KV must not outlive the drain);
    // tracing on, so the drain leaves an auditable event stream.
    let serve = || {
        ServeConfig::new(8).with_prefix_cache(PrefixCacheConfig::default()).with_tracing(1 << 20)
    };
    let build = |down_at: Option<u64>| {
        ElasticClusterEngine::new(
            vec![
                ServeEngine::new(hilos(8), serve()).unwrap(),
                ServeEngine::new(hilos(8), serve()).unwrap(),
            ],
            Box::new(RoundRobin::new()),
            Box::new(ScriptedScaler { up_at: None, down_at }),
            ElasticConfig { initial_active: 2, ..ElasticConfig::new(2) },
        )
    };
    let mut elastic = build(Some(300));
    let report = elastic.run_trace(&trace).unwrap();

    // Exactly one drain, retiring the slot it evacuated.
    assert_eq!(report.drains, 1);
    assert_eq!(report.retires, 1);
    let drained = report
        .events
        .iter()
        .find(|e| e.to == LifecycleState::Draining)
        .expect("a drain must have begun")
        .deployment as usize;
    let retired = report.events.iter().find(|e| e.to == LifecycleState::Retired).unwrap();
    assert_eq!(retired.deployment as usize, drained, "the draining slot is the one that retires");
    assert_eq!(elastic.lifecycle_state(drained), LifecycleState::Retired);

    // The drain happened live: in-flight requests migrated with
    // retained progress and completed elsewhere.
    assert!(report.drained_requests > 0, "the slot was full at step 300 — something must move");
    assert!(report.cluster.redispatches >= report.drained_requests);
    assert_eq!(report.cluster.completed(), 192, "every request completes exactly once");
    assert_eq!(report.lost(), 0);
    let mut ids: Vec<u64> = report.cluster.outcomes().map(|o| o.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 192, "duplicated or lost ids across the drain");

    // Migrated victims kept causally-ordered timestamps across the
    // clock-domain re-base.
    for o in report.cluster.outcomes() {
        assert!(o.first_token_s <= o.finished_s, "{o:?}");
        assert!(o.ttft() >= 0.0 && o.itl() >= 0.0 && o.e2e() >= 0.0, "{o:?}");
    }

    // The event stream audits the drain: conservation holds *across*
    // the deployments (arrivals on the drained slot terminate on the
    // survivor), every drained request left a Migrated event on its
    // target, and the drain/retire transitions are in the source ring.
    let rings: Vec<&[hilos::trace::Event]> =
        report.cluster.deployments.iter().map(|d| d.events.as_slice()).collect();
    let cons = hilos::trace::check_conservation(&rings);
    assert!(cons.holds(), "event conservation violated under drain: {cons:?}");
    assert_eq!(cons.arrived, 192);
    assert_eq!(cons.completed, 192);
    let migrations = rings
        .iter()
        .flat_map(|r| r.iter())
        .filter(|e| matches!(e.kind, hilos::trace::EventKind::Migrated { .. }))
        .count();
    assert!(migrations >= report.drained_requests as usize, "drained work must leave a trail");
    let source_kinds: Vec<&str> = rings[drained].iter().map(|e| e.kind.label()).collect();
    assert!(source_kinds.contains(&"drain") && source_kinds.contains(&"retired"));

    // The source is *empty*: no live shard allocations, no parked
    // demoted KV awaiting a recall that can never come.
    for eng in elastic.deployments() {
        assert_eq!(eng.ledger().live_requests(), 0, "leaked shard allocations");
        assert_eq!(eng.parked_victim_kv(), 0, "parked KV must drain with the slot");
    }

    // Deterministic under drain + migration too.
    let mut again = build(Some(300));
    assert_eq!(report, again.run_trace(&trace).unwrap());
}

/// The full elastic story on the bursty seeded trace: a keep-alive
/// autoscaler over cost-normalized routing scales up for bursts, drains
/// and retires between them, pre-warms from the learned gap histogram —
/// and never loses a request. Utilization billing undercuts what the
/// same fleet reserved at peak would have paid.
#[test]
fn bursty_keep_alive_run_scales_both_ways_with_zero_lost_requests() {
    let trace = TraceConfig::flash_crowd_mix(384, 42, 6, 2400).generate().unwrap();
    let build = || {
        ElasticClusterEngine::new(
            vec![
                ServeEngine::new(hilos(8), ServeConfig::new(8)).unwrap(),
                ServeEngine::new(hilos(6), ServeConfig::new(8)).unwrap(),
                ServeEngine::new(hilos(4), ServeConfig::new(8)).unwrap(),
            ],
            Box::new(CostNormalizedPressure),
            Box::new(HybridHistogramKeepAlive::new(64)),
            ElasticConfig::new(1),
        )
    };
    let mut elastic = build();
    let report = elastic.run_trace(&trace).unwrap();

    // The fleet breathed: scaled up under bursts, released between them.
    assert!(report.scale_ups >= 1, "bursts must trigger scale-ups: {:?}", report.events);
    assert!(report.retires >= 1, "calm gaps must retire capacity: {:?}", report.events);
    assert!(report.peak_active > 1, "a flash crowd needs more than the floor");

    // Zero loss across every scale-up, drain and retire.
    assert_eq!(report.cluster.completed(), 384);
    assert_eq!(report.lost(), 0);
    let mut ids: Vec<u64> = report.cluster.outcomes().map(|o| o.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 384);
    for eng in elastic.deployments() {
        assert_eq!(eng.ledger().live_requests(), 0);
    }

    // Utilization billing beats reserving the peak fleet for the whole
    // run (the ≥1.3× margin is recorded in BENCH_cluster.json and gated
    // exactly in CI; here we assert the direction).
    let reserved_slots: Vec<(f64, f64)> =
        report.bills.iter().map(|b| (b.price_usd, b.power_w)).collect();
    let reserved = hilos::metrics::FleetBill::reserved(&reserved_slots, report.cluster.elapsed_s());
    let goodput = report.cluster.goodput_tokens();
    assert!(goodput > 0);
    assert!(
        report.fleet_bill().cost_usd() < reserved.cost_usd(),
        "elastic bill {} must undercut the reserved fleet {}",
        report.fleet_bill().cost_usd(),
        reserved.cost_usd()
    );

    // Deterministic end to end: lifecycle events, bills and outcomes.
    let mut again = build();
    assert_eq!(report, again.run_trace(&trace).unwrap());
}

/// A router for the interaction-point pin: fresh arrivals join the
/// least-loaded routable slot, and re-dispatched victims prefer the
/// least-loaded routable *Fifo* slot (every index but 1 and 4), so
/// victims a `PriorityPreempt` slot sheds land mid-window on a Fifo slot.
#[derive(Debug)]
struct VictimsToFifo;

impl RoutingPolicy for VictimsToFifo {
    fn name(&self) -> &'static str {
        "victims-to-fifo"
    }

    fn route(&mut self, request: &RouteRequest, snapshot: &ClusterSnapshot<'_>) -> usize {
        let least_loaded = |fifo_only: bool| {
            snapshot
                .deployments
                .iter()
                .filter(|d| d.routable() && (!fifo_only || d.id % 3 != 1))
                .min_by_key(|d| (d.load(), d.id))
                .map(|d| d.id as usize)
        };
        let fifo = if request.redispatch { least_loaded(true) } else { None };
        fifo.or_else(|| least_loaded(false)).unwrap_or(0)
    }
}

/// Golden pin over every point where the lockstep loop touches a slot
/// from outside its own serving iteration: arrivals routed onto it,
/// drain evacuation, drain migrations onto it, lifecycle transitions
/// written into its ring, and phase-B re-dispatch of another slot's
/// victims. Six slots, four `Fifo` and two `PriorityPreempt` (slots 1
/// and 4), run under a reactive scaler whose low-water mark sits above
/// full admission capacity, so it drains slots that still hold queued
/// and in-flight work; they evacuate one in-flight request per step.
/// The FNV covers every outcome, every per-deployment
/// event stream, the lifecycle trail and the bills, so any drift in
/// when a slot catches up shows here.
#[test]
fn every_cluster_interaction_point_stays_on_its_golden_pin() {
    let trace = TraceConfig::flash_crowd_mix(288, 42, 4, 3000).generate().unwrap();
    let serve = || ServeConfig::new(4).with_tracing(1 << 20);
    let slots = (0..6)
        .map(|d| {
            let policy: Box<dyn SchedulingPolicy> =
                if d % 3 == 1 { Box::new(PriorityPreempt::new()) } else { Box::new(Fifo) };
            ServeEngine::with_policy(hilos(8), serve(), policy).unwrap()
        })
        .collect();
    let mut elastic = ElasticClusterEngine::new(
        slots,
        Box::new(VictimsToFifo),
        Box::new(TargetPressureScaler::new(2.0, 1.5, 32)),
        ElasticConfig { min_active: 1, drain_batch: 1, ..ElasticConfig::new(2) },
    );
    let report = elastic.run_trace(&trace).unwrap();

    assert!(report.drains > 0, "the scaler must drain");
    assert!(report.drained_requests > 0, "a drain must migrate in-flight work");
    assert!(
        report.cluster.redispatches > report.drained_requests,
        "phase-B victims must re-dispatch across slots too"
    );
    assert_eq!(report.cluster.completed() + report.lost(), 288);

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for d in &report.cluster.deployments {
        mix(outcome_hash(&d.outcomes));
        mix(hilos::trace::events_fnv(&d.events));
        mix(d.events_dropped);
        mix(d.steps);
        mix(d.elapsed_s.to_bits());
    }
    for e in &report.events {
        mix(e.step);
        mix(u64::from(e.deployment));
        mix(e.to as u64);
    }
    for b in &report.bills {
        mix(b.billed_seconds.to_bits());
    }
    assert_eq!(h, 0xe646_f576_0f15_99f8, "cluster interaction-point pin drifted");
}
