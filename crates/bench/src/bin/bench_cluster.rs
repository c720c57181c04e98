//! `bench_cluster` — the multi-deployment routing smoke bench.
//!
//! Four measurements, recorded into `BENCH_cluster.json` (current
//! directory, or the path given as the first argument):
//!
//! 1. **Routing comparison** — the seeded contended trace (384 Azure-mix
//!    requests, one arrival every ~10 steps) balanced across three
//!    heterogeneous deployments (8 healthy devices / 6 with one device
//!    at half bandwidth / 4 with one device at quarter bandwidth) under
//!    round-robin, join-shortest-queue and ledger-pressure routing. The
//!    simulation is bit-deterministic, so CI gates the exact ordering:
//!    `ledger-pressure ≥ join-shortest-queue ≥ round-robin` on SLO
//!    goodput, and records the ledger-pressure vs round-robin margin.
//! 2. **Cross-deployment re-dispatch** — a 2-deployment priority-preempt
//!    cluster under round-robin routing on a balanced-load trace:
//!    preempted victims must actually migrate between deployments and
//!    every request must still complete exactly once.
//! 3. **Elastic vs reserved fleet** — the seeded flash-crowd trace (384
//!    requests in 6 bursts separated by long calm gaps) served by an
//!    elastic 3-slot fleet under cost-normalized routing, autoscaled by
//!    the reactive target-pressure scaler and by the hybrid-histogram
//!    keep-alive predictor, against the same fleet statically reserved
//!    at peak for the whole run. CI gates: the keep-alive fleet beats
//!    the reserved one on $/1k-goodput-tokens by ≥1.3×, with zero lost
//!    requests across every scale-up, drain and retire.
//! 4. **Fleet-scale stepping** — a 32-deployment fleet on a
//!    100k-request seeded trace, one lockstep run over the fleet's one
//!    shared memo table; the `fleet-smoke` CI job gates the fleet shape,
//!    full completion and a 60-second wall budget.
//!
//! ```text
//! Usage: bench_cluster [output.json]
//! ```

use hilos_core::cluster::{
    AutoscalePolicy, ClusterEngine, CostNormalizedPressure, ElasticClusterEngine, ElasticConfig,
    HybridHistogramKeepAlive, JoinShortestQueue, LedgerPressure, RoundRobin, RoutingPolicy,
    TargetPressureScaler,
};
use hilos_core::{HilosConfig, HilosSystem, PriorityPreempt, ServeConfig, ServeEngine};
use hilos_llm::{presets, TraceConfig};
use hilos_metrics::FleetBill;
use hilos_platform::SystemSpec;
use std::time::Instant;

/// Requests in the routing-comparison trace.
const REQUESTS: usize = 384;
/// Mean arrival gap (serving steps) of the contended trace.
const ARRIVAL_GAP: u64 = 10;
/// Trace seed (shared with `tests/cluster.rs`).
const SEED: u64 = 42;

fn hilos(n: usize) -> HilosSystem {
    HilosSystem::new(&SystemSpec::a100_smartssd(n), &presets::opt_30b(), &HilosConfig::new(n))
        .unwrap()
        .with_sim_layers(1)
}

/// The seeded heterogeneous cluster: distinct device counts *and*
/// degradation profiles, so capacity-blind routing leaves goodput on the
/// table.
fn heterogeneous_deployments() -> Vec<ServeEngine> {
    vec![
        ServeEngine::new(hilos(8), ServeConfig::new(8)).unwrap(),
        ServeEngine::new(hilos(6).with_degraded_device(1, 0.5), ServeConfig::new(8)).unwrap(),
        ServeEngine::new(hilos(4).with_degraded_device(0, 0.25), ServeConfig::new(8)).unwrap(),
    ]
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_cluster.json".to_string());

    // -- 1: three-way routing-policy comparison --
    let trace = TraceConfig {
        mean_interarrival_steps: ARRIVAL_GAP,
        ..TraceConfig::azure_mix(REQUESTS, SEED)
    }
    .generate()
    .expect("valid trace config");
    let mut goodputs = Vec::new();
    let policy_rows: Vec<String> = [
        Box::new(RoundRobin::new()) as Box<dyn RoutingPolicy>,
        Box::new(JoinShortestQueue),
        Box::new(LedgerPressure::new()),
    ]
    .into_iter()
    .map(|routing| {
        let name = routing.name();
        let mut cluster = ClusterEngine::new(heterogeneous_deployments(), routing);
        let start = Instant::now();
        let r = cluster.run_trace(&trace).unwrap();
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(r.completed(), trace.len(), "{name}: trace must complete");
        goodputs.push(r.slo_token_goodput());
        eprintln!(
            "routing {name}: slo_goodput {:.2} tok/s, hit {:.1}%, makespan {:.0}s, \
             dispatched {:?}, {} redispatches ({wall:.3}s wall)",
            r.slo_token_goodput(),
            r.slo_hit_rate() * 100.0,
            r.elapsed_s(),
            r.dispatched,
            r.redispatches,
        );
        let dispatched = r.dispatched.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
        format!(
            "{{\"routing\": \"{name}\", \"slo_goodput_tokens_per_second\": {:.4}, \
             \"slo_hit_rate\": {:.4}, \"tokens_per_second\": {:.4}, \
             \"ttft_p95_seconds\": {:.4}, \"makespan_seconds\": {:.4}, \
             \"dispatched\": [{dispatched}], \"dispatch_imbalance\": {:.4}, \
             \"redispatches\": {}}}",
            r.slo_token_goodput(),
            r.slo_hit_rate(),
            r.tokens_per_second(),
            r.ttft_stats().p95,
            r.elapsed_s(),
            r.dispatch_imbalance(),
            r.redispatches,
        )
    })
    .collect();
    let margin_vs_rr = goodputs[2] / goodputs[0];
    eprintln!("ledger-pressure vs round-robin margin: {margin_vs_rr:.3}x");

    // -- 2: cross-deployment re-dispatch of preempted requests --
    let balanced = TraceConfig { mean_interarrival_steps: 30, ..TraceConfig::azure_mix(128, 33) }
        .generate()
        .expect("valid trace config");
    let preempting = |sys: HilosSystem| {
        ServeEngine::with_policy(sys, ServeConfig::new(3), Box::new(PriorityPreempt::new()))
            .unwrap()
    };
    let mut cluster = ClusterEngine::new(
        vec![preempting(hilos(4)), preempting(hilos(4).with_degraded_device(0, 0.5))],
        Box::new(RoundRobin::new()),
    );
    let rd = cluster.run_trace(&balanced).unwrap();
    assert_eq!(rd.completed(), balanced.len(), "re-dispatch must lose nothing");
    eprintln!(
        "re-dispatch: {} preemptions, {} crossed deployments, {} completed",
        rd.preemptions(),
        rd.redispatches,
        rd.completed(),
    );

    // -- 3: elastic vs reserved fleet on the bursty trace --
    const BURSTY_REQUESTS: usize = 512;
    const BURSTS: u32 = 8;
    const CALM_GAP: u64 = 2400;
    let bursty =
        TraceConfig::flash_crowd_mix(BURSTY_REQUESTS, SEED, BURSTS, CALM_GAP).generate().unwrap();
    let elastic_slots = || {
        vec![
            ServeEngine::new(hilos(8), ServeConfig::new(8)).unwrap(),
            ServeEngine::new(hilos(6), ServeConfig::new(8)).unwrap(),
            ServeEngine::new(hilos(4), ServeConfig::new(8)).unwrap(),
            ServeEngine::new(hilos(4), ServeConfig::new(8)).unwrap(),
        ]
    };

    // The reserved baseline: the same fleet, every slot provisioned for
    // the whole run, same cost-normalized router.
    let mut fixed = ClusterEngine::new(elastic_slots(), Box::new(CostNormalizedPressure));
    let fixed_report = fixed.run_trace(&bursty).unwrap();
    assert_eq!(fixed_report.completed(), bursty.len(), "fixed fleet must complete the trace");
    let slot_costs: Vec<(f64, f64)> = fixed
        .deployments()
        .iter()
        .map(|e| {
            let spec = e.system().spec();
            (spec.total_price_usd(), hilos_metrics::provisioned_power_w(spec))
        })
        .collect();
    let reserved_bill = FleetBill::reserved(&slot_costs, fixed_report.elapsed_s());
    let fixed_cost_per_1k = reserved_bill.cost_per_1k_tokens(fixed_report.goodput_tokens());
    eprintln!(
        "fixed fleet: ${:.4}/1k goodput tokens ({} goodput tokens, makespan {:.0}s, \
         bill ${:.2})",
        fixed_cost_per_1k,
        fixed_report.goodput_tokens(),
        fixed_report.elapsed_s(),
        reserved_bill.cost_usd(),
    );

    let mut hybrid_cost_per_1k = f64::INFINITY;
    let elastic_rows: Vec<String> = [
        Box::new(TargetPressureScaler::default()) as Box<dyn AutoscalePolicy>,
        Box::new(HybridHistogramKeepAlive::new(64)),
    ]
    .into_iter()
    .map(|autoscale| {
        let name = autoscale.name();
        let mut elastic = ElasticClusterEngine::new(
            elastic_slots(),
            Box::new(CostNormalizedPressure),
            autoscale,
            ElasticConfig::new(1),
        );
        let start = Instant::now();
        let r = elastic.run_trace(&bursty).unwrap();
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(r.cluster.completed(), bursty.len(), "{name}: elasticity must lose nothing");
        assert_eq!(r.lost(), 0, "{name}: zero dropped requests");
        let cost_per_1k = r.cost_per_1k_goodput_tokens();
        if name == "hybrid-histogram-keep-alive" {
            hybrid_cost_per_1k = cost_per_1k;
        }
        eprintln!(
            "elastic {name}: ${:.4}/1k goodput tokens, {} scale-ups, {} drains, {} retires, \
             {} migrated, peak {} active, {:.0}s billed (+{:.0}s cold start) ({wall:.3}s wall)",
            cost_per_1k,
            r.scale_ups,
            r.drains,
            r.retires,
            r.drained_requests,
            r.peak_active,
            r.fleet_bill().billed_seconds(),
            r.cold_start_s_total,
        );
        format!(
            "{{\"autoscale\": \"{name}\", \"cost_per_1k_goodput_usd\": {:.6}, \
             \"fleet_cost_usd\": {:.6}, \"billed_seconds\": {:.2}, \
             \"cold_start_seconds\": {:.2}, \"scale_ups\": {}, \"drains\": {}, \
             \"retires\": {}, \"migrated_requests\": {}, \"peak_active\": {}, \
             \"completed\": {}, \"lost\": {}, \"slo_hit_rate\": {:.4}}}",
            cost_per_1k,
            r.fleet_bill().cost_usd(),
            r.fleet_bill().billed_seconds(),
            r.cold_start_s_total,
            r.scale_ups,
            r.drains,
            r.retires,
            r.drained_requests,
            r.peak_active,
            r.cluster.completed(),
            r.lost(),
            r.cluster.slo_hit_rate(),
        )
    })
    .collect();
    let fixed_vs_elastic = fixed_cost_per_1k / hybrid_cost_per_1k;
    eprintln!("reserved vs keep-alive elastic $/1k-goodput: {fixed_vs_elastic:.3}x");

    // -- 4: fleet-scale lockstep stepping --
    // 32 identical deployments on a 100k-request seeded trace.
    const FLEET_DEPLOYMENTS: usize = 32;
    const FLEET_REQUESTS: usize = 100_000;
    // Offline inference shape: the whole campaign is enqueued up front
    // (mean interarrival 0), every deployment runs a full batch every
    // step, and the lockstep rounds are few and heavy.
    let fleet_trace =
        TraceConfig { mean_interarrival_steps: 0, ..TraceConfig::azure_mix(FLEET_REQUESTS, SEED) }
            .generate()
            .expect("valid trace config");
    let slots: Vec<ServeEngine> = (0..FLEET_DEPLOYMENTS)
        .map(|_| ServeEngine::new(hilos(4), ServeConfig::new(32)).unwrap())
        .collect();
    let mut fleet_cluster = ClusterEngine::new(slots, Box::new(RoundRobin::new()));
    let start = Instant::now();
    let fleet = fleet_cluster.run_trace(&fleet_trace).unwrap();
    let fleet_s = start.elapsed().as_secs_f64();
    assert_eq!(fleet.completed(), FLEET_REQUESTS, "fleet trace must complete");
    let logical_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!(
        "fleet: {FLEET_DEPLOYMENTS} deployments x {FLEET_REQUESTS} requests in {fleet_s:.2}s \
         ({logical_cores} logical cores)",
    );

    let json = format!(
        "{{\n  \"bench\": \"cluster\",\n  \"note\": \"one contended seeded trace balanced \
         across 3 heterogeneous deployments (8 healthy / 6 with a half-degraded device / 4 \
         with a quarter-degraded device) under three routing policies, plus cross-deployment \
         re-dispatch of preempted requests on a 2-deployment priority-preempt cluster\",\n  \
         \"cluster\": {{\"deployments\": 3, \"requests\": {REQUESTS}, \
         \"mean_interarrival_steps\": {ARRIVAL_GAP}, \"seed\": {SEED}}},\n  \
         \"routing\": [\n    {}\n  ],\n  \
         \"ledger_pressure_vs_round_robin_goodput\": {margin_vs_rr:.4},\n  \
         \"redispatch\": {{\"requests\": {}, \"preemptions\": {}, \"cross_deployment\": {}, \
         \"completed\": {}}},\n  \
         \"elastic\": {{\n    \
         \"trace\": {{\"requests\": {BURSTY_REQUESTS}, \"bursts\": {BURSTS}, \
         \"calm_gap_steps\": {CALM_GAP}, \"seed\": {SEED}}},\n    \
         \"fleet\": {{\"slots\": 4, \"initial_active\": 1, \"routing\": \
         \"cost-normalized-pressure\"}},\n    \
         \"policies\": [\n      {}\n    ],\n    \
         \"fixed\": {{\"cost_per_1k_goodput_usd\": {fixed_cost_per_1k:.6}, \
         \"fleet_cost_usd\": {:.6}, \"makespan_seconds\": {:.2}, \"completed\": {}}},\n    \
         \"fixed_vs_elastic_cost_per_1k\": {fixed_vs_elastic:.4}\n  }},\n  \
         \"fleet\": {{\"deployments\": {FLEET_DEPLOYMENTS}, \"requests\": {FLEET_REQUESTS}, \
         \"seed\": {SEED}, \"logical_cores\": {logical_cores}, \
         \"seconds\": {fleet_s:.4}, \"completed\": {}}}\n}}\n",
        policy_rows.join(",\n    "),
        balanced.len(),
        rd.preemptions(),
        rd.redispatches,
        rd.completed(),
        elastic_rows.join(",\n      "),
        reserved_bill.cost_usd(),
        fixed_report.elapsed_s(),
        fixed_report.completed(),
        fleet.completed(),
    );
    std::fs::write(&out_path, &json).expect("write BENCH_cluster.json");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
