//! Property tests for the α model, writeback invariants and the serving
//! layer's shard-ledger conservation.

use hilos_core::cluster::{
    ClusterEngine, CostNormalizedPressure, ElasticClusterEngine, ElasticConfig, JoinShortestQueue,
    LedgerPressure, RoundRobin, RoutingPolicy, TargetPressureScaler,
};
use hilos_core::trace::{check_conservation, prefill_chunk_totals, Event, LatencyAttribution};
use hilos_core::{
    paper_alpha_mha, spill_nand_bytes_per_token, AlphaModel, AlphaPolicy, ChunkMode, DeadlineEdf,
    Fifo, HilosConfig, HilosSystem, PrefixCacheConfig, PriorityPreempt, SchedulingPolicy,
    ServeConfig, ServeEngine, WritebackManager, ALPHA_CANDIDATES,
};
use hilos_llm::{presets, SharedPrefixConfig, TraceConfig};
use hilos_platform::SystemSpec;
use proptest::prelude::*;

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

    /// The writeback manager spills exactly floor(steps/c) times over any
    /// horizon and never buffers ≥ c tokens.
    #[test]
    fn writeback_spill_count_exact(c in 1u32..64, steps in 1u32..512) {
        let mut wb = WritebackManager::new(c);
        let mut spills = 0u32;
        for _ in 0..steps {
            let d = wb.on_step();
            prop_assert!(d.buffered_tokens < c);
            if d.spill_now {
                prop_assert_eq!(d.spill_tokens, c);
                spills += 1;
            }
        }
        prop_assert_eq!(spills, steps / c);
        prop_assert_eq!(wb.buffered_tokens(), steps % c);
        prop_assert_eq!(wb.total_spills() as u32, spills);
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
            1 => ChunkMode::Lump,
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
        let lump = run(ChunkMode::Lump);
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
            1 => ChunkMode::Lump,
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
        let mut cluster = ClusterEngine::new(deployments, routing);
        let report = cluster.run_trace(&trace).unwrap();

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
            1 => ChunkMode::Lump,
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
