//! Property tests for the α model, writeback invariants and the serving
//! layer's shard-ledger conservation.

use hilos_core::cluster::{
    AutoscalePolicy, CostNormalizedPressure, ElasticClusterEngine, ElasticConfig, ElasticReport,
    FleetSnapshot, HybridHistogramKeepAlive, JoinShortestQueue, LedgerPressure, RoundRobin,
    RoutingPolicy, ScaleDecision, TargetPressureScaler,
};
use hilos_core::trace::{check_conservation, prefill_chunk_totals, Event, LatencyAttribution};
use hilos_core::{
    decision_at, paper_alpha_mha, simulated_decision, spill_nand_bytes_per_token, AlphaModel,
    AlphaPolicy, AlphaSelector, ChunkMode, DeadlineEdf, DecodeStepExecutor, Fifo, HilosConfig,
    HilosSystem, PrefixCacheConfig, PriorityPreempt, SchedulingPolicy, ServeConfig, ServeEngine,
    SpillDecision, ALPHA_CANDIDATES,
};
use hilos_llm::{presets, SharedPrefixConfig, TraceConfig};
use hilos_platform::SystemSpec;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The selected α is the argmin over the candidate grid, for any
    /// bandwidth/size configuration.
    #[test]
    fn selected_alpha_is_candidate_argmin(
        x_frac in 0.2f64..3.0,
        b_ssd in 1.0e9..100.0e9,
        b_pci in 1.0e9..100.0e9,
        regen in 1.0e12..1.0e17,
        c_gpu in 10.0e12..1000.0e12,
    ) {
        let kv = 1.0e12;
        let m = AlphaModel {
            x_bytes: kv * x_frac,
            kv_bytes: kv,
            b_ssd,
            b_pci,
            regen_flops: regen,
            c_gpu,
        };
        let a = m.select_alpha();
        let t = m.effective_seconds(a);
        for &cand in &ALPHA_CANDIDATES {
            prop_assert!(t <= m.effective_seconds(cand) * (1.0 + 1e-9),
                "alpha {a} ({t}s) beaten by {cand} ({}s)", m.effective_seconds(cand));
        }
    }

    /// The MHA closed form solves T_PCI = T_SSD exactly when unclamped.
    #[test]
    fn closed_form_balances_transfers(
        b_ssd in 2.0e9..100.0e9,
        b_pci in 1.0e9..100.0e9,
    ) {
        let m = AlphaModel {
            x_bytes: 0.5e12,
            kv_bytes: 1.0e12,
            b_ssd,
            b_pci,
            regen_flops: 1.0,
            c_gpu: 1e15,
        };
        let a = m.closed_form_alpha();
        prop_assume!(a > 0.0 && a < 1.0);
        let t_pci = a * m.x_bytes / m.b_pci;
        let t_ssd = (a * m.x_bytes + (1.0 - a) * m.kv_bytes) / m.b_ssd;
        prop_assert!((t_pci - t_ssd).abs() / t_ssd < 1e-9);
        // And it matches the paper's published formula.
        prop_assert!((a - paper_alpha_mha(b_ssd, b_pci)).abs() < 1e-12);
    }

    /// Effective step time is monotone non-increasing in both bandwidths.
    #[test]
    fn effective_time_monotone_in_bandwidth(
        alpha_i in 0usize..5,
        b_ssd in 2.0e9..50.0e9,
        b_pci in 2.0e9..50.0e9,
        boost in 1.01f64..4.0,
    ) {
        let alpha = ALPHA_CANDIDATES[alpha_i];
        let base = AlphaModel {
            x_bytes: 0.5e12,
            kv_bytes: 1.0e12,
            b_ssd,
            b_pci,
            regen_flops: 1e15,
            c_gpu: 290e12,
        };
        let faster_ssd = AlphaModel { b_ssd: b_ssd * boost, ..base };
        let faster_pci = AlphaModel { b_pci: b_pci * boost, ..base };
        prop_assert!(faster_ssd.effective_seconds(alpha) <= base.effective_seconds(alpha));
        prop_assert!(faster_pci.effective_seconds(alpha) <= base.effective_seconds(alpha));
    }

    /// The writeback schedule spills exactly floor(steps/c) times over
    /// any horizon and never buffers ≥ c tokens.
    #[test]
    fn writeback_spill_count_exact(c in 1u32..64, steps in 1u32..512) {
        let config = HilosConfig::new(8).with_spill_interval(c);
        let mut spills = 0u32;
        for step in 0..steps as u64 {
            let d = decision_at(&config, step);
            prop_assert!(d.buffered_tokens < c);
            if d.spill_now {
                prop_assert_eq!(d.spill_tokens, c);
                spills += 1;
            }
        }
        prop_assert_eq!(spills, steps / c);
        prop_assert_eq!(decision_at(&config, steps as u64).buffered_tokens, steps % c);
    }

    /// Spill write amplification is ≥ 1 and non-increasing in the spill
    /// interval, for any page size.
    #[test]
    fn spill_waf_bounds(c in 1u32..128, page_pow in 12u32..15) {
        let page = 1u64 << page_pow;
        let m = presets::opt_66b();
        let payload = m.kv_bytes_per_token() as f64;
        let waf = spill_nand_bytes_per_token(&m, c, page) / payload;
        prop_assert!(waf >= 1.0 - 1e-9, "waf {waf} < 1");
        let waf2 = spill_nand_bytes_per_token(&m, c * 2, page) / payload;
        prop_assert!(waf2 <= waf * (1.0 + 1e-9), "waf not monotone: {waf} -> {waf2}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The error budget of solving a writeback cycle's `c − 1` non-spill
    /// phases at their middle: Σ_b t(solved(b)), each phase `b` at the
    /// buffer `simulated_decision` gives it, against Σ_b t(b), the phases
    /// solved one by one at one operating point. The budget is 1e-3
    /// (relative) while the buffered tail is at most 1% of the context,
    /// and an eighth of the tail's share, `(c − 2)/(8·context)`, beyond
    /// that: the step time has a kink in the buffer, so even solved
    /// buffers that sum to the phases' own leave an error. Contexts are
    /// drawn log-uniformly so short ones are hit.
    #[test]
    fn one_solve_for_the_non_spill_phases_stays_in_budget(
        model in 0usize..5,
        devices in 0usize..3,
        sim_layers in 1u32..5,
        batch in 1u32..65,
        context_log2 in 6.0f64..17.0,
        zero_alpha in any::<bool>(),
        c in 2u32..33,
    ) {
        let n = [4, 8, 16][devices];
        let context = context_log2.exp2().round() as u64;
        let model = presets::all()[model].clone();
        let config = HilosConfig::new(n).with_spill_interval(c);
        let sys = HilosSystem::new(&SystemSpec::a100_smartssd(n), &model, &config)
            .unwrap()
            .with_sim_layers(sim_layers);
        let mut exec = DecodeStepExecutor::new(&sys).unwrap();
        let alpha = if zero_alpha {
            0.0
        } else {
            AlphaSelector::new(&config, sys.spec()).select(&model, batch, context)
        };
        let mut t = |d: SpillDecision| exec.execute_step(batch, context, alpha, &d).unwrap().seconds;
        let phase = |b: u32| SpillDecision { buffered_tokens: b, ..SpillDecision::NONE };
        let phases: f64 = (0..c - 1).map(|b| t(phase(b))).sum();
        let solved: f64 = (0..c - 1).map(|b| t(simulated_decision(&config, phase(b)))).sum();
        let err = (solved - phases).abs() / phases;
        let share = (c - 2) as f64 / context as f64;
        let budget = if share <= 0.01 { 1e-3 } else { share / 8.0 };
        prop_assert!(
            err <= budget,
            "{} on {} SSDs, c={} bs={} ctx={} α={}: off by {:e}",
            model.name(), n, c, batch, context, alpha, err
        );
    }
}

fn serve_system() -> HilosSystem {
    HilosSystem::new(&SystemSpec::a100_smartssd(8), &presets::opt_30b(), &HilosConfig::new(8))
        .unwrap()
        .with_sim_layers(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Shard-ledger conservation: after *any* `run_trace` — any policy,
    /// any chunk mode, any load, including runs that preempt mid-prefill
    /// and re-admit — every device returns to its initial free capacity
    /// and no allocation leaks.
    #[test]
    fn ledger_conserved_across_any_run_trace(
        n in 8usize..48,
        seed in 0u64..1_000_000,
        gap in 0u64..64,
        max_batch in 2u32..8,
        policy_idx in 0usize..4,
        chunk_idx in 0usize..4,
    ) {
        let trace = TraceConfig { mean_interarrival_steps: gap, ..TraceConfig::azure_mix(n, seed) }
            .generate()
            .unwrap();
        let policy: Box<dyn SchedulingPolicy> = match policy_idx {
            0 => Box::new(Fifo),
            1 => Box::new(DeadlineEdf::new()),
            2 => Box::new(DeadlineEdf::with_shedding()),
            _ => Box::new(PriorityPreempt::new()),
        };
        let chunk_mode = match chunk_idx {
            0 => ChunkMode::Off,
            1 => ChunkMode::lump(),
            2 => ChunkMode::chunked(),
            _ => ChunkMode::Chunked { chunk_tokens: 64, step_budget_tokens: 512 },
        };
        let name = policy.name();
        let config = ServeConfig::new(max_batch).with_chunk_mode(chunk_mode);
        let mut eng = ServeEngine::with_policy(serve_system(), config, policy).unwrap();
        let free_before = eng.ledger().free_by_device();
        let occupied_before = eng.ledger().total_occupied();
        let report = eng.run_trace(&trace).unwrap();
        prop_assert_eq!(
            report.outcomes.len() + report.rejected.len() + report.shed.len(), n,
            "{} lost requests", name);
        prop_assert_eq!(eng.ledger().live_requests(), 0, "{} leaked allocations", name);
        prop_assert_eq!(eng.ledger().total_occupied(), occupied_before, "{} occupancy", name);
        prop_assert_eq!(eng.ledger().free_by_device(), free_before, "{} per-device free", name);
        // A shed request never generated or completed.
        for s in &report.shed {
            prop_assert!(report.outcomes.iter().all(|o| o.id != s.id), "{:?} completed too", s);
            prop_assert!(s.overdue_s() >= 0.0, "viable request shed: {:?}", s);
        }
    }

    /// Chunk conservation: whatever the chunk size and step budget, the
    /// executed prefill chunks of every completed request sum to exactly
    /// its whole-prompt prefill — in tokens exactly, in seconds to f64
    /// accumulation accuracy (chunk times are telescoping differences of
    /// the same memoized whole-prompt curve, only their summation order
    /// differs between runs). α is pinned: under auto-α the admission α
    /// depends on the live batch size, which can evolve differently
    /// between the two runs and legitimately shift their totals.
    #[test]
    fn chunked_prefill_conserves_whole_prompt_work(
        n in 8usize..24,
        seed in 0u64..1_000_000,
        gap in 0u64..48,
        chunk_pow in 5u32..10,
        budget_mult in 1u64..8,
    ) {
        let chunk = 1u64 << chunk_pow;
        let chunked = ChunkMode::Chunked {
            chunk_tokens: chunk,
            step_budget_tokens: chunk * budget_mult,
        };
        let trace = TraceConfig { mean_interarrival_steps: gap, ..TraceConfig::azure_mix(n, seed) }
            .generate()
            .unwrap();
        let fixed_alpha_system = || {
            HilosSystem::new(
                &SystemSpec::a100_smartssd(8),
                &presets::opt_30b(),
                &HilosConfig::new(8).with_alpha(AlphaPolicy::Fixed(0.5)),
            )
            .unwrap()
            .with_sim_layers(1)
        };
        let run = |mode| {
            ServeEngine::new(fixed_alpha_system(), ServeConfig::new(4).with_chunk_mode(mode))
                .unwrap()
                .run_trace(&trace)
                .unwrap()
        };
        let lump = run(ChunkMode::lump());
        let fine = run(chunked);
        prop_assert_eq!(lump.outcomes.len(), n);
        prop_assert_eq!(fine.outcomes.len(), n);
        // FIFO never preempts: every request ingests exactly its prompt.
        for o in fine.outcomes.iter().chain(lump.outcomes.iter()) {
            prop_assert_eq!(o.prefill_tokens, o.prompt_len, "{:?}", o);
        }
        prop_assert_eq!(lump.prefill.chunk_tokens, fine.prefill.chunk_tokens);
        let (a, b) = (lump.prefill.prefill_seconds(), fine.prefill.prefill_seconds());
        prop_assert!(
            (a - b).abs() <= 1e-9 * a.max(1.0),
            "chunked prefill total {b}s diverged from lump {a}s (chunk {chunk})"
        );
    }

    /// Prefix-cache serving conservation: with the cache on — any chunk
    /// mode, any load, any shared-prefix shape, a deliberately tiny HBM
    /// rung forcing constant demotion cascades — every request still
    /// finishes exactly once, the shard ledger returns to its initial
    /// state, and the cache's books balance: hits never exceed lookups,
    /// victims recall at most what was demoted, and under FIFO (no
    /// preemptions) the prefill tokens actually charged equal the
    /// prompts minus exactly the saved tokens.
    #[test]
    fn prefix_cache_serving_conserves_requests_and_work(
        n in 8usize..32,
        seed in 0u64..1_000_000,
        gap in 0u64..64,
        chunk_idx in 0usize..3,
        policy_idx in 0usize..2,
        sys_pow in 7u32..12,
        fu_pct in 0u32..95,
    ) {
        let shared = SharedPrefixConfig {
            system_prompt_tokens: 1 << sys_pow,
            follow_up_fraction: fu_pct as f64 / 100.0,
            follow_up_tokens: 96,
            max_turns: 6,
        };
        let trace = TraceConfig { mean_interarrival_steps: gap, ..TraceConfig::azure_mix(n, seed) }
            .with_shared_prefix(shared)
            .generate()
            .unwrap();
        let chunk_mode = match chunk_idx {
            0 => ChunkMode::Off,
            1 => ChunkMode::lump(),
            _ => ChunkMode::chunked(),
        };
        let policy: Box<dyn SchedulingPolicy> = if policy_idx == 0 {
            Box::new(Fifo)
        } else {
            Box::new(PriorityPreempt::new())
        };
        let cache = PrefixCacheConfig {
            hbm_bytes: 64 << 20, // tiny on purpose: publish must cascade
            dram_bytes: 1 << 30,
            block_tokens: 64,
        };
        let config = ServeConfig::new(4).with_chunk_mode(chunk_mode).with_prefix_cache(cache);
        let mut eng = ServeEngine::with_policy(serve_system(), config, policy).unwrap();
        let free_before = eng.ledger().free_by_device();
        let report = eng.run_trace(&trace).unwrap();

        // Exactly-once and shard-ledger conservation, cache on.
        prop_assert_eq!(report.outcomes.len() + report.rejected.len(), n);
        prop_assert_eq!(eng.ledger().live_requests(), 0, "leaked shard allocations");
        prop_assert_eq!(eng.ledger().free_by_device(), free_before, "per-device free drifted");

        // The cache's books balance.
        let pc = &report.prefix;
        prop_assert!(pc.hits <= pc.lookups, "{} hits > {} lookups", pc.hits, pc.lookups);
        prop_assert!(pc.hit_rate() <= 1.0);
        prop_assert!(pc.victim_recalls <= pc.victim_demotions, "recalled more than parked");
        if policy_idx == 0 {
            // FIFO never preempts: charged prefill = prompts - saved.
            prop_assert_eq!(report.preemptions, 0);
            prop_assert_eq!(pc.victim_demotions, 0);
            let charged: u64 = report.outcomes.iter().map(|o| o.prefill_tokens).sum();
            let prompts: u64 = report.outcomes.iter().map(|o| o.prompt_len).sum();
            prop_assert_eq!(
                charged + pc.saved_prefill_tokens, prompts,
                "saved tokens must be exactly the prefill never charged"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cluster conservation: for any routing policy, scheduling policy
    /// mix, load and cluster shape, every trace request finishes exactly
    /// once across the whole cluster — no loss, no duplication — and
    /// every deployment's shard ledger returns to its initial per-device
    /// free state, even when preempted requests are re-dispatched across
    /// deployments.
    #[test]
    fn cluster_routing_conserves_requests_and_ledgers(
        n in 12usize..48,
        seed in 0u64..1_000_000,
        gap in 0u64..48,
        max_batch in 2u32..6,
        routing_idx in 0usize..3,
        sched_idx in 0usize..2,
        dep_count in 1usize..4,
    ) {
        let trace = TraceConfig { mean_interarrival_steps: gap, ..TraceConfig::azure_mix(n, seed) }
            .generate()
            .unwrap();
        let routing: Box<dyn RoutingPolicy> = match routing_idx {
            0 => Box::new(RoundRobin::new()),
            1 => Box::new(JoinShortestQueue),
            _ => Box::new(LedgerPressure::new()),
        };
        // Heterogeneous shapes: 8 healthy / 6 half-degraded / 4 degraded.
        let serve_cfg = ServeConfig::new(max_batch).with_tracing(1 << 18);
        let deployments: Vec<ServeEngine> = (0..dep_count)
            .map(|d| {
                let sys = match d {
                    0 => serve_system(),
                    1 => HilosSystem::new(
                        &SystemSpec::a100_smartssd(6),
                        &presets::opt_30b(),
                        &HilosConfig::new(6),
                    )
                    .unwrap()
                    .with_sim_layers(1)
                    .with_degraded_device(1, 0.5),
                    _ => HilosSystem::new(
                        &SystemSpec::a100_smartssd(4),
                        &presets::opt_30b(),
                        &HilosConfig::new(4),
                    )
                    .unwrap()
                    .with_sim_layers(1)
                    .with_degraded_device(0, 0.25),
                };
                let policy: Box<dyn SchedulingPolicy> = if sched_idx == 0 {
                    Box::new(Fifo)
                } else {
                    Box::new(PriorityPreempt::new())
                };
                ServeEngine::with_policy(sys, serve_cfg.clone(), policy).unwrap()
            })
            .collect();
        let frees_before: Vec<Vec<u64>> =
            deployments.iter().map(|e| e.ledger().free_by_device()).collect();
        let mut cluster = ElasticClusterEngine::pinned(deployments, routing);
        let report = cluster.run_trace(&trace).unwrap().cluster;

        // Exactly-once across the cluster: outcomes + rejections
        // partition the trace ids.
        let mut seen: Vec<u64> = report.outcomes().map(|o| o.id).collect();
        seen.extend(report.deployments.iter().flat_map(|d| d.rejected.iter().copied()));
        seen.sort_unstable();
        let mut expect: Vec<u64> = trace.iter().map(|r| r.id).collect();
        expect.sort_unstable();
        prop_assert_eq!(seen, expect, "requests lost or duplicated across deployments");

        // Dispatch accounting covers the whole trace.
        prop_assert_eq!(report.dispatched.iter().sum::<u64>(), n as u64);

        // Ledger conservation per deployment.
        for (eng, before) in cluster.deployments().iter().zip(&frees_before) {
            prop_assert_eq!(eng.ledger().live_requests(), 0, "leaked allocations");
            prop_assert_eq!(&eng.ledger().free_by_device(), before, "per-device free drifted");
        }

        // Event-stream conservation *across* the rings: a request that
        // arrived on one deployment may terminate on another (migration),
        // but every arrival terminates exactly once cluster-wide.
        let rings: Vec<&[Event]> =
            report.deployments.iter().map(|d| d.events.as_slice()).collect();
        for d in &report.deployments {
            prop_assert_eq!(d.events_dropped, 0, "ring too small for the run");
        }
        let cons = check_conservation(&rings);
        prop_assert!(cons.holds(), "event conservation violated: {:?}", cons);
        prop_assert_eq!(cons.arrived, n);
        prop_assert_eq!(cons.completed + cons.rejected, n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Request conservation through the elastic engine, with the fleet
    /// scaling both ways mid-run: for any seeded flash-crowd trace, a
    /// pressure-driven autoscaler that drains and migrates in-flight
    /// work under either pressure router finishes the run, and every
    /// request ends exactly once — completed, rejected or shed.
    #[test]
    fn elastic_scaling_conserves_requests(
        n in 24usize..64,
        seed in 0u64..1_000_000,
        bursts in 2u32..5,
        routing_idx in 0usize..2,
    ) {
        let trace = TraceConfig::flash_crowd_mix(n, seed, bursts, 1200).generate().unwrap();
        let routing: Box<dyn RoutingPolicy> = if routing_idx == 0 {
            Box::new(LedgerPressure::new())
        } else {
            Box::new(CostNormalizedPressure)
        };
        let deployments: Vec<ServeEngine> = [8usize, 6, 4]
            .iter()
            .map(|&devices| {
                let sys = HilosSystem::new(
                    &SystemSpec::a100_smartssd(devices),
                    &presets::opt_30b(),
                    &HilosConfig::new(devices),
                )
                .unwrap()
                .with_sim_layers(1);
                ServeEngine::new(sys, ServeConfig::new(4)).unwrap()
            })
            .collect();
        let mut elastic = ElasticClusterEngine::new(
            deployments,
            routing,
            Box::new(TargetPressureScaler::new(0.75, 0.1, 24)),
            ElasticConfig::new(1),
        );
        let report = elastic.run_trace(&trace);
        prop_assert!(report.is_ok(), "elastic run failed: {:?}", report.err());
        let report = report.unwrap();
        prop_assert_eq!(report.cluster.completed() + report.lost(), n);

        let mut seen: Vec<u64> = report.cluster.outcomes().map(|o| o.id).collect();
        for d in &report.cluster.deployments {
            seen.extend(d.rejected.iter().copied());
            seen.extend(d.shed.iter().map(|s| s.id));
        }
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        prop_assert_eq!(seen.len(), before, "a request id ended more than once");
    }
}

/// What a [`LoggedAutoscale`] saw: its `decide` calls, and each step
/// the policy's state (its `Debug` form) changed on, with the new state.
#[derive(Debug, Default, PartialEq)]
struct ConsultLog {
    calls: u64,
    states: Vec<(u64, String)>,
}

/// Forwards an autoscale policy and logs its consults. With
/// `forward_wake` off it keeps the default `next_wake`, so the engine
/// consults it on every step a busy fleet could otherwise skip.
#[derive(Debug)]
struct LoggedAutoscale {
    inner: Box<dyn AutoscalePolicy>,
    forward_wake: bool,
    log: Rc<RefCell<ConsultLog>>,
}

impl AutoscalePolicy for LoggedAutoscale {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, snapshot: &FleetSnapshot<'_>) -> ScaleDecision {
        let decision = self.inner.decide(snapshot);
        let state = format!("{:?}", self.inner);
        let mut log = self.log.borrow_mut();
        log.calls += 1;
        if log.states.last().is_none_or(|(_, last)| *last != state) {
            log.states.push((snapshot.step, state));
        }
        decision
    }

    fn next_wake(&self, snapshot: &FleetSnapshot<'_>) -> u64 {
        if self.forward_wake {
            self.inner.next_wake(snapshot)
        } else {
            snapshot.step + 1
        }
    }

    fn prewarm_at(&self, snapshot: &FleetSnapshot<'_>) -> Option<u64> {
        self.inner.prewarm_at(snapshot)
    }

    fn may_scale(&self) -> bool {
        self.inner.may_scale()
    }
}

/// Serves `trace` on a traced 3-slot elastic fleet (8/6/4 devices, one
/// slot Active) under routing policy `routing_idx` and the autoscaler
/// `autoscale` builds, once with its `next_wake` forwarded and once with
/// the default; returns each report with its consult log.
fn run_with_and_without_next_wake(
    trace: &[hilos_llm::Request],
    routing_idx: usize,
    autoscale: impl Fn() -> Box<dyn AutoscalePolicy>,
) -> [(ElasticReport, ConsultLog); 2] {
    [true, false].map(|forward_wake| {
        let routing: Box<dyn RoutingPolicy> = match routing_idx {
            0 => Box::new(RoundRobin::new()),
            1 => Box::new(JoinShortestQueue),
            2 => Box::new(LedgerPressure::new()),
            _ => Box::new(CostNormalizedPressure),
        };
        let deployments: Vec<ServeEngine> = [8usize, 6, 4]
            .iter()
            .map(|&devices| {
                let sys = HilosSystem::new(
                    &SystemSpec::a100_smartssd(devices),
                    &presets::opt_30b(),
                    &HilosConfig::new(devices),
                )
                .unwrap()
                .with_sim_layers(1);
                ServeEngine::new(sys, ServeConfig::new(4).with_tracing(1 << 16)).unwrap()
            })
            .collect();
        let log = Rc::new(RefCell::new(ConsultLog::default()));
        let policy = LoggedAutoscale { inner: autoscale(), forward_wake, log: log.clone() };
        let mut elastic = ElasticClusterEngine::new(
            deployments,
            routing,
            Box::new(policy),
            ElasticConfig::new(1),
        );
        let report = elastic.run_trace(trace).unwrap();
        drop(elastic);
        (report, Rc::into_inner(log).expect("the engine is gone").into_inner())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `AutoscalePolicy::next_wake` skips only steps that change nothing:
    /// for random flash crowds, water marks, cooldowns, keep-alive
    /// thresholds and every router, a fleet that skips to each wake
    /// reports exactly what one consulting its autoscaler on every busy
    /// step reports — the whole elastic report and every deployment's
    /// event stream — and its policy changes state on the same steps to
    /// the same states, with no more `decide` calls.
    #[test]
    fn next_wake_skips_change_nothing(
        n in 24usize..64,
        seed in 0u64..1_000_000,
        bursts in 2u32..5,
        calm_gap in 200u64..1500,
        routing_idx in 0usize..4,
        keep_alive in any::<bool>(),
        high in 0.5f64..1.5,
        low in 0.0f64..0.3,
        cooldown in 0u64..80,
        burst_threshold in 8u64..160,
    ) {
        let trace = TraceConfig::flash_crowd_mix(n, seed, bursts, calm_gap).generate().unwrap();
        let autoscale = || -> Box<dyn AutoscalePolicy> {
            if keep_alive {
                Box::new(HybridHistogramKeepAlive::new(burst_threshold))
            } else {
                Box::new(TargetPressureScaler::new(high, low, cooldown))
            }
        };
        let [(direct, direct_log), (every, every_log)] =
            run_with_and_without_next_wake(&trace, routing_idx, autoscale);
        let pairs = direct.cluster.deployments.iter().zip(&every.cluster.deployments);
        for (i, (d, e)) in pairs.enumerate() {
            prop_assert_eq!(d.events_dropped, 0, "ring too small for the run");
            prop_assert!(d.events == e.events, "deployment {} event streams differ", i);
        }
        prop_assert!(direct == every, "the elastic reports differ");
        let states = (&direct_log.states, &every_log.states);
        let first = states.0.iter().zip(states.1).position(|(a, b)| a != b);
        prop_assert!(states.0 == states.1, "policy state trajectories differ from entry {:?}", first);
        prop_assert!(direct_log.calls <= every_log.calls, "{:?} vs {:?}", direct_log, every_log);
    }
}

/// Both shipped scaling policies skip `decide` calls on a flash crowd:
/// the skips the property above holds exact do happen.
#[test]
fn next_wake_saves_decide_calls_on_a_flash_crowd() {
    let trace = TraceConfig::flash_crowd_mix(48, 42, 3, 800).generate().unwrap();
    let policies: [fn() -> Box<dyn AutoscalePolicy>; 2] = [
        || Box::new(TargetPressureScaler::new(0.75, 0.1, 24)),
        || Box::new(HybridHistogramKeepAlive::new(64)),
    ];
    for autoscale in policies {
        let [(direct, direct_log), (every, every_log)] =
            run_with_and_without_next_wake(&trace, 3, autoscale);
        assert_eq!(direct, every);
        assert_eq!(direct_log.states, every_log.states);
        let calls = (direct_log.calls, every_log.calls);
        assert!(calls.0 < calls.1, "{} vs {} decide calls", calls.0, calls.1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Event-stream conservation and additive latency attribution: for
    /// any scheduling policy — including preempting and shedding ones —
    /// any chunk mode and any load, a traced run pairs every `Arrived`
    /// with exactly one terminal event, agrees with the report's own
    /// outcome/rejection/shed counts, reconciles its chunk events
    /// against [`TraceReport::prefill`], and decomposes every completed
    /// request's end-to-end latency into phase components that sum back
    /// to it bit-exactly.
    #[test]
    fn event_stream_conserves_and_attribution_sums_to_e2e(
        n in 8usize..40,
        seed in 0u64..1_000_000,
        gap in 0u64..48,
        chunk_idx in 0usize..3,
        policy_idx in 0usize..4,
    ) {
        let trace = TraceConfig { mean_interarrival_steps: gap, ..TraceConfig::azure_mix(n, seed) }
            .generate()
            .unwrap();
        let chunk_mode = match chunk_idx {
            0 => ChunkMode::Off,
            1 => ChunkMode::lump(),
            _ => ChunkMode::chunked(),
        };
        let policy: Box<dyn SchedulingPolicy> = match policy_idx {
            0 => Box::new(Fifo),
            1 => Box::new(DeadlineEdf::new()),
            2 => Box::new(DeadlineEdf::with_shedding()),
            _ => Box::new(PriorityPreempt::new()),
        };
        let config = ServeConfig::new(4).with_chunk_mode(chunk_mode).with_tracing(1 << 20);
        let mut eng = ServeEngine::with_policy(serve_system(), config, policy).unwrap();
        let report = eng.run_trace(&trace).unwrap();

        prop_assert_eq!(report.events_dropped, 0, "ring too small for the run");
        let cons = check_conservation(&[&report.events]);
        prop_assert!(cons.holds(), "event conservation violated: {:?}", cons);
        prop_assert_eq!(cons.arrived, n);
        prop_assert_eq!(cons.completed, report.outcomes.len());
        prop_assert_eq!(cons.rejected, report.rejected.len());
        prop_assert_eq!(cons.shed, report.shed.len());

        // Attribution: one row per completed request, every component
        // non-negative (to float tolerance) and summing back exactly.
        let attr = LatencyAttribution::analyze(&[&report.events]);
        prop_assert_eq!(attr.rows.len(), report.outcomes.len());
        for row in &attr.rows {
            prop_assert_eq!(
                row.components_sum(), row.e2e_s,
                "request {} leaks time: {:?}", row.id, row
            );
            for c in [
                row.queue_s, row.recall_s, row.prefill_s, row.interference_s,
                row.preemption_lost_s, row.migration_s, row.decode_s,
            ] {
                prop_assert!(c >= -1e-9, "negative component on {}: {:?}", row.id, row);
            }
        }

        // Chunk events reconcile against the engine's own breakdown.
        let totals = prefill_chunk_totals(&report.events);
        prop_assert_eq!(totals.chunks, report.prefill.chunks);
        prop_assert_eq!(totals.tokens, report.prefill.chunk_tokens);
        prop_assert!(
            (totals.seconds() - report.prefill.prefill_seconds()).abs()
                <= 1e-9 * totals.seconds().max(1.0),
            "chunk seconds diverged from the report"
        );
    }
}

/// Directed conservation check on a run that *provably* preempts: the
/// balanced-load priority trace fires dozens of preempt/re-admit cycles,
/// and the ledger still returns to its initial state.
#[test]
fn ledger_conserved_under_forced_preemptions() {
    let trace = TraceConfig { mean_interarrival_steps: 40, ..TraceConfig::azure_mix(96, 33) }
        .generate()
        .unwrap();
    let mut eng = ServeEngine::with_policy(
        serve_system(),
        ServeConfig::new(4),
        Box::new(PriorityPreempt::new()),
    )
    .unwrap();
    let free_before = eng.ledger().free_by_device();
    let report = eng.run_trace(&trace).unwrap();
    assert!(report.preemptions > 0, "trace must exercise the preempt/re-admit path");
    assert_eq!(eng.ledger().live_requests(), 0);
    assert_eq!(eng.ledger().free_by_device(), free_before);
}
