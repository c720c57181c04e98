//! Cluster-serving integration tests: the multi-deployment router layer
//! end to end — golden 1-deployment equivalence (the cluster adds no
//! simulation drift), the heterogeneous routing-policy ordering, and
//! cross-deployment re-dispatch of preempted requests.

use hilos::core::cluster::{
    ClusterSnapshot, ElasticClusterEngine, JoinShortestQueue, LedgerPressure, RoundRobin,
    RouteRequest, RoutingPolicy,
};
use hilos::core::{
    ChunkMode, ClusterReport, CoreError, Fifo, HilosConfig, HilosSystem, PriorityPreempt,
    SchedDecision, SchedSnapshot, SchedulingPolicy, ServeConfig, ServeEngine,
};
use hilos::llm::{presets, DeploymentId, Request, TraceConfig};
use hilos::platform::SystemSpec;
use std::cell::Cell;
use std::rc::Rc;

fn hilos(n: usize) -> HilosSystem {
    HilosSystem::new(&SystemSpec::a100_smartssd(n), &presets::opt_30b(), &HilosConfig::new(n))
        .unwrap()
        .with_sim_layers(1)
}

use hilos::core::outcome_lifecycle_fnv as outcome_hash;

/// Golden equivalence: a 1-deployment cluster — under *any* routing
/// policy — serves the seeded Azure-mix trace bit-identically to the
/// non-cluster engine. The FNV hash over every outcome's lifecycle
/// timestamps is the exact constant `tests/serving.rs` pins for the
/// pre-cluster engine, so the whole chain (PR 2 hard-wired loop → PR 3
/// policy API → this router layer) is provably drift-free.
#[test]
fn single_deployment_cluster_is_bit_identical_to_serve_engine() {
    let trace = TraceConfig::azure_mix(512, 42).generate().unwrap();
    let mut eng = ServeEngine::new(hilos(8), ServeConfig::new(16)).unwrap();
    let direct = eng.run_trace(&trace).unwrap();
    assert_eq!(outcome_hash(&direct.outcomes), 0x36871028425441ab, "pre-cluster pin drifted");

    for routing in [
        Box::new(RoundRobin::new()) as Box<dyn RoutingPolicy>,
        Box::new(JoinShortestQueue),
        Box::new(LedgerPressure::new()),
    ] {
        let name = routing.name();
        let mut cluster = ElasticClusterEngine::pinned(
            vec![ServeEngine::new(hilos(8), ServeConfig::new(16)).unwrap()],
            routing,
        );
        assert_eq!(cluster.deployment_count(), 1);
        let report = cluster.run_trace(&trace).unwrap().cluster;
        assert_eq!(report.routing, name);
        assert_eq!(report.deployments.len(), 1);
        assert_eq!(report.deployments[0], direct, "{name}: cluster layer drifted");
        assert_eq!(outcome_hash(&report.deployments[0].outcomes), 0x36871028425441ab, "{name}");
        assert_eq!(report.dispatched, vec![512]);
        assert_eq!(report.redispatches, 0, "{name}: nowhere else to re-dispatch");
    }
}

/// Memo sharing is unconditional within a fingerprint group, and it is
/// outcome-transparent: a second run of the same trace starts with every
/// step and prefill time already memoized (by whichever twin computed it
/// first) and must reproduce the first run's report exactly. The three
/// identical deployments form one group and read one table, so they
/// report one entry count; the degraded deployment is a group of its own.
#[test]
fn warm_shared_memo_leaves_the_cluster_report_unchanged() {
    let deployments = vec![
        ServeEngine::new(hilos(8), ServeConfig::new(8)).unwrap(),
        ServeEngine::new(hilos(8), ServeConfig::new(8)).unwrap(),
        ServeEngine::new(hilos(8), ServeConfig::new(8)).unwrap(),
        ServeEngine::new(hilos(8).with_degraded_device(0, 0.5), ServeConfig::new(8)).unwrap(),
    ];
    let mut cluster = ElasticClusterEngine::pinned(deployments, Box::new(JoinShortestQueue));
    let trace = TraceConfig { mean_interarrival_steps: 10, ..TraceConfig::azure_mix(192, 42) }
        .generate()
        .unwrap();
    let cold = cluster.run_trace(&trace).unwrap().cluster;
    assert_eq!(cold.completed(), trace.len());
    assert!(cold.dispatched.iter().all(|&d| d > 0), "every deployment must serve");
    let warm = cluster.run_trace(&trace).unwrap().cluster;
    assert_eq!(warm, cold, "a warm memo changed the cluster report");
    let entries: Vec<usize> = cold.deployments.iter().map(|d| d.step_cache_entries).collect();
    assert!(entries[0] > 0);
    assert!(entries[..3].iter().all(|&e| e == entries[0]), "twins share one table: {entries:?}");
}

/// An engine that already ran brings its memo into its fingerprint
/// group's table when it joins a cluster: right after the join, the
/// veteran and its cold twin both report the veteran's entries, and the
/// warm cluster serves a trace exactly as a cluster of cold engines
/// does (only the memo size differs, by what the solo run computed).
#[test]
fn a_joining_engine_brings_its_memo_into_the_group_table() {
    let build = || ServeEngine::new(hilos(8), ServeConfig::new(8)).unwrap();
    let mut veteran = build();
    let solo = veteran.run_trace(&TraceConfig::azure_mix(48, 7).generate().unwrap()).unwrap();
    assert!(solo.step_cache_entries > 0);

    let mut joined =
        ElasticClusterEngine::pinned(vec![veteran, build()], Box::new(JoinShortestQueue));
    // An empty trace steps nothing: it reports the table the join left.
    let empty = joined.run_trace(&[]).unwrap().cluster;
    let entries: Vec<usize> = empty.deployments.iter().map(|d| d.step_cache_entries).collect();
    assert_eq!(entries, [solo.step_cache_entries; 2], "the join dropped the veteran's memo");

    let trace = TraceConfig { mean_interarrival_steps: 10, ..TraceConfig::azure_mix(96, 42) }
        .generate()
        .unwrap();
    let cold = ElasticClusterEngine::pinned(vec![build(), build()], Box::new(JoinShortestQueue))
        .run_trace(&trace)
        .unwrap()
        .cluster;
    let mut warm = joined.run_trace(&trace).unwrap().cluster;
    assert_eq!(warm.completed(), trace.len());
    for (w, c) in warm.deployments.iter_mut().zip(&cold.deployments) {
        assert!(w.step_cache_entries >= c.step_cache_entries.max(solo.step_cache_entries));
        w.step_cache_entries = c.step_cache_entries;
    }
    assert_eq!(warm, cold, "the absorbed memo changed the cluster report");
}

/// The seeded contended heterogeneous cluster of the acceptance
/// criteria: three deployments with distinct device counts and
/// degradations, arrivals well above the weakest deployment's service
/// rate. Routing quality decides who meets their SLO.
fn heterogeneous_deployments() -> Vec<ServeEngine> {
    vec![
        // A healthy 8-device array.
        ServeEngine::new(hilos(8), ServeConfig::new(8)).unwrap(),
        // A mid-size array with one half-degraded device.
        ServeEngine::new(hilos(6).with_degraded_device(1, 0.5), ServeConfig::new(8)).unwrap(),
        // A small array with one severely degraded device.
        ServeEngine::new(hilos(4).with_degraded_device(0, 0.25), ServeConfig::new(8)).unwrap(),
    ]
}

fn contended_trace() -> Vec<Request> {
    TraceConfig { mean_interarrival_steps: 10, ..TraceConfig::azure_mix(384, 42) }
        .generate()
        .unwrap()
}

fn run_routing(routing: Box<dyn RoutingPolicy>) -> ClusterReport {
    let mut cluster = ElasticClusterEngine::pinned(heterogeneous_deployments(), routing);
    cluster.run_trace(&contended_trace()).unwrap().cluster
}

/// Acceptance: on the seeded contended trace over 3 heterogeneous
/// deployments, pressure-aware routing beats capacity-blind round-robin
/// on SLO goodput (the margin is recorded in `BENCH_cluster.json` and
/// gated exactly in CI, together with `ledger-pressure ≥
/// join-shortest-queue`). Every request completes exactly once under
/// every policy.
#[test]
fn ledger_pressure_routing_beats_round_robin_on_goodput() {
    let rr = run_routing(Box::new(RoundRobin::new()));
    let jsq = run_routing(Box::new(JoinShortestQueue));
    let lp = run_routing(Box::new(LedgerPressure::new()));

    for r in [&rr, &jsq, &lp] {
        assert_eq!(r.completed() + r.rejected_len(), 384, "{}: lost requests", r.routing);
        assert_eq!(r.rejected_len(), 0, "{}: nothing here is unplaceable", r.routing);
        // Every deployment served something (no policy collapses to one).
        for (d, dep) in r.deployments.iter().enumerate() {
            assert!(!dep.outcomes.is_empty(), "{}: deployment {d} served nothing", r.routing);
        }
        // Exactly-once: the union of outcome ids is the full trace.
        let mut ids: Vec<u64> = r.outcomes().map(|o| o.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 384, "{}: duplicated or lost ids", r.routing);
    }

    assert!(
        lp.slo_token_goodput() > rr.slo_token_goodput(),
        "ledger-pressure {} must beat round-robin {} on SLO goodput",
        lp.slo_token_goodput(),
        rr.slo_token_goodput()
    );
    assert!(
        jsq.slo_token_goodput() >= rr.slo_token_goodput(),
        "join-shortest-queue {} must not lose to round-robin {}",
        jsq.slo_token_goodput(),
        rr.slo_token_goodput()
    );
    assert!(
        lp.slo_token_goodput() >= jsq.slo_token_goodput(),
        "ledger-pressure {} must not lose to join-shortest-queue {}",
        lp.slo_token_goodput(),
        jsq.slo_token_goodput()
    );

    // Round-robin overloads the weak deployments; pressure-aware routing
    // shifts dispatch toward the healthy 8-device array.
    assert!(
        lp.dispatched[0] > rr.dispatched[0],
        "pressure routing should favor the big healthy deployment: {:?} vs {:?}",
        lp.dispatched,
        rr.dispatched
    );

    // Deterministic: the whole cluster simulation reproduces bit for bit.
    let again = run_routing(Box::new(LedgerPressure::new()));
    assert_eq!(lp, again, "same seed must route and serve bit-identically");
}

/// Cross-deployment re-dispatch: preempted victims are offered back to
/// the router and may finish on a different deployment than the one that
/// preempted them — with their generated progress retained.
#[test]
fn preempted_requests_redispatch_across_deployments_and_complete() {
    let trace = TraceConfig { mean_interarrival_steps: 30, ..TraceConfig::azure_mix(128, 33) }
        .generate()
        .unwrap();
    let build = || {
        vec![
            ServeEngine::with_policy(
                hilos(4),
                ServeConfig::new(3),
                Box::new(PriorityPreempt::new()),
            )
            .unwrap(),
            ServeEngine::with_policy(
                hilos(4).with_degraded_device(0, 0.5),
                ServeConfig::new(3),
                Box::new(PriorityPreempt::new()),
            )
            .unwrap(),
        ]
    };
    let mut cluster = ElasticClusterEngine::pinned(build(), Box::new(RoundRobin::new()));
    let report = cluster.run_trace(&trace).unwrap().cluster;
    assert!(report.preemptions() > 0, "the contended cluster must preempt");
    assert!(report.redispatches > 0, "preempted victims must cross deployments");
    assert_eq!(report.completed(), 128, "every preempted request still completes");
    // Ledger conservation on every deployment, even across re-dispatch.
    for eng in cluster.deployments() {
        assert_eq!(eng.ledger().live_requests(), 0, "leaked shard allocations");
    }
    // Every lifecycle stays causally ordered with non-negative
    // latencies, even for requests whose timestamps crossed clock
    // domains.
    for o in report.outcomes() {
        assert!(o.first_token_s <= o.finished_s, "{o:?}");
        assert!(o.ttft() >= 0.0 && o.itl() >= 0.0 && o.e2e() >= 0.0, "{o:?}");
        assert!(o.output_len > 0, "retained progress must survive the move: {o:?}");
    }
    // Deterministic under preemption + re-dispatch too.
    let mut cluster2 = ElasticClusterEngine::pinned(build(), Box::new(RoundRobin::new()));
    assert_eq!(report, cluster2.run_trace(&trace).unwrap().cluster);
}

/// Chunked prefill through the cluster layer: a 1-deployment chunked
/// cluster is bit-identical to the chunked engine driven directly (the
/// router adds no drift to the token-budgeted step either), and a
/// heterogeneous chunked cluster completes everything while aggregating
/// the prefill-interference breakdown across deployments.
#[test]
fn chunked_cluster_is_drift_free_and_aggregates_breakdowns() {
    let mut cfg = TraceConfig::long_context(96, 42, 4).with_mean_interarrival(30);
    cfg.class_weights = [2, 4, 4];
    let trace = cfg.generate().unwrap();
    let chunked_config = || ServeConfig::new(8).with_chunk_mode(ChunkMode::chunked());

    // Direct vs 1-deployment cluster.
    let mut eng = ServeEngine::new(hilos(8), chunked_config()).unwrap();
    let direct = eng.run_trace(&trace).unwrap();
    assert!(direct.prefill.chunks > 0, "the trace must actually chunk");
    let mut one = ElasticClusterEngine::pinned(
        vec![ServeEngine::new(hilos(8), chunked_config()).unwrap()],
        Box::new(LedgerPressure::new()),
    );
    let one_report = one.run_trace(&trace).unwrap().cluster;
    assert_eq!(one_report.deployments[0], direct, "cluster layer drifted under chunking");

    // Heterogeneous chunked cluster: everything completes, the global
    // breakdown merges per-deployment chunk work, and the router saw the
    // prefill backlog while dispatching.
    let mut cluster = ElasticClusterEngine::pinned(
        vec![
            ServeEngine::new(hilos(8), chunked_config()).unwrap(),
            ServeEngine::new(hilos(4).with_degraded_device(0, 0.5), chunked_config()).unwrap(),
        ],
        Box::new(LedgerPressure::new()),
    );
    let report = cluster.run_trace(&trace).unwrap().cluster;
    assert_eq!(report.completed(), 96);
    let merged = report.prefill_breakdown();
    assert_eq!(merged.chunks, report.deployments.iter().map(|d| d.prefill.chunks).sum::<u64>());
    assert_eq!(
        merged.chunk_tokens,
        report.outcomes().map(|o| o.prefill_tokens).sum::<u64>(),
        "cluster-wide chunk conservation"
    );
    assert!(merged.prefill_seconds() > 0.0);
    assert!(report.step_itl_stats().count > 0);
    for eng in cluster.deployments() {
        assert_eq!(eng.ledger().live_requests(), 0);
    }
}

/// A directed migration probe: every fresh arrival goes to deployment 0,
/// every preemption re-dispatch to deployment 1. Deployment 1 can then
/// *only* hold migrated victims, so its outcomes prove cross-deployment
/// completion with retained progress — and because deployment 1's clock
/// lags deployment 0's by its whole idle prefix, the run exercises the
/// timestamp re-basing across wildly diverged clock domains (latencies
/// must stay non-negative and causally ordered).
#[derive(Debug)]
struct MigrateToSpare;

impl RoutingPolicy for MigrateToSpare {
    fn name(&self) -> &'static str {
        "migrate-to-spare"
    }
    fn route(&mut self, req: &RouteRequest, _snap: &ClusterSnapshot<'_>) -> usize {
        usize::from(req.redispatch)
    }
}

/// A policy that answers with a deployment index past the end of the
/// fleet — a routing bug the engine must surface, not silently absorb.
#[derive(Debug)]
struct OutOfRangeRouting;

impl RoutingPolicy for OutOfRangeRouting {
    fn name(&self) -> &'static str {
        "out-of-range"
    }
    fn route(&mut self, _req: &RouteRequest, snap: &ClusterSnapshot<'_>) -> usize {
        snap.deployments.len() + 3
    }
}

/// Debug builds refuse an out-of-range routing answer loudly.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "routing policy picked deployment")]
fn out_of_range_routing_panics_in_debug_builds() {
    let trace = TraceConfig::azure_mix(16, 7).generate().unwrap();
    let mut cluster =
        ElasticClusterEngine::pinned(heterogeneous_deployments(), Box::new(OutOfRangeRouting));
    let _ = cluster.run_trace(&trace);
}

/// Release builds clamp to the last deployment but count every
/// out-of-range answer in [`ClusterReport::misrouted`] — the bug stays
/// visible in the report instead of vanishing into a silent `.min()`.
#[cfg(not(debug_assertions))]
#[test]
fn out_of_range_routing_is_counted_and_clamped_in_release_builds() {
    let trace = TraceConfig::azure_mix(16, 7).generate().unwrap();
    let mut cluster =
        ElasticClusterEngine::pinned(heterogeneous_deployments(), Box::new(OutOfRangeRouting));
    let report = cluster.run_trace(&trace).unwrap().cluster;
    assert_eq!(report.misrouted as usize, 16, "every dispatch was out of range");
    assert_eq!(report.dispatched, vec![0, 0, 16], "clamped to the last deployment");
}

#[test]
fn migrated_victims_finish_on_the_spare_deployment_with_sane_latencies() {
    let trace = TraceConfig { mean_interarrival_steps: 30, ..TraceConfig::azure_mix(128, 33) }
        .generate()
        .unwrap();
    let preempting = || {
        ServeEngine::with_policy(hilos(4), ServeConfig::new(3), Box::new(PriorityPreempt::new()))
            .unwrap()
    };
    let mut cluster =
        ElasticClusterEngine::pinned(vec![preempting(), preempting()], Box::new(MigrateToSpare));
    let report = cluster.run_trace(&trace).unwrap().cluster;
    assert_eq!(report.completed(), 128);
    assert_eq!(report.dispatched, vec![128, 0], "fresh arrivals all pinned to deployment 0");
    assert!(report.deployments[0].preemptions > 0, "deployment 0 must preempt under the load");
    // Every deployment-0 victim migrates to the spare; victims the spare
    // itself preempts re-route to the spare and are not migrations.
    assert_eq!(
        report.redispatches, report.deployments[0].preemptions,
        "every deployment-0 victim must migrate to the spare"
    );
    // Deployment 1 holds only migrated victims — each one a preempted
    // request that finished elsewhere than it started, with its
    // generated progress intact.
    let spare = &report.deployments[1];
    assert!(!spare.outcomes.is_empty(), "no victim ever completed on the spare");
    for o in &spare.outcomes {
        assert_eq!(o.deployment, DeploymentId(1), "{o:?}");
        assert!(o.preemptions > 0, "only preempted requests can reach the spare: {o:?}");
        assert!(o.output_len > 0, "retained progress lost in migration: {o:?}");
        // The spare's clock lags deployment 0 by thousands of seconds;
        // re-based timestamps must still be causally ordered and yield
        // non-negative latencies.
        assert!(o.first_token_s <= o.finished_s, "{o:?}");
        assert!(o.ttft() >= 0.0 && o.itl() >= 0.0 && o.e2e() >= 0.0, "{o:?}");
        assert!(o.met_slo() == (o.e2e() <= o.slo_deadline_s), "{o:?}");
    }
    // Conservation still holds across the directed migration.
    for eng in cluster.deployments() {
        assert_eq!(eng.ledger().live_requests(), 0);
    }
}

/// A scheduling policy that admits nothing while its shared gate is
/// closed, and schedules first-in-first-out once it opens.
#[derive(Debug)]
struct Gated {
    open: Rc<Cell<bool>>,
    fifo: Fifo,
}

impl SchedulingPolicy for Gated {
    fn name(&self) -> &'static str {
        "gated"
    }
    fn schedule(&mut self, snapshot: &SchedSnapshot<'_>) -> Vec<SchedDecision> {
        if self.open.get() {
            self.fifo.schedule(snapshot)
        } else {
            Vec::new()
        }
    }
}

/// A cluster whose every deployment holds its queue forever reports
/// `SchedulerStalled` with the queue lengths summed across deployments,
/// and the failed run leaves the cluster whole: both deployments are
/// still there, and the next run serves a trace to completion.
#[test]
fn stalled_cluster_reports_every_queued_request_and_stays_usable() {
    let open = Rc::new(Cell::new(false));
    let deployment = || {
        let policy = Gated { open: Rc::clone(&open), fifo: Fifo };
        ServeEngine::with_policy(hilos(8), ServeConfig::new(4), Box::new(policy)).unwrap()
    };
    let mut cluster =
        ElasticClusterEngine::pinned(vec![deployment(), deployment()], Box::new(RoundRobin::new()));

    // Round-robin splits the six requests three and three.
    let stuck = TraceConfig::azure_mix(6, 1).generate().unwrap();
    match cluster.run_trace(&stuck) {
        Err(CoreError::SchedulerStalled { queued }) => assert_eq!(queued, 6),
        other => panic!("expected SchedulerStalled, got {other:?}"),
    }
    assert_eq!(cluster.deployments().len(), 2);

    open.set(true);
    let trace = TraceConfig::azure_mix(24, 7).generate().unwrap();
    let report = cluster.run_trace(&trace).unwrap().cluster;
    assert_eq!(report.completed(), trace.len());
    assert!(report.dispatched.iter().all(|&d| d > 0), "both deployments must serve");
}
