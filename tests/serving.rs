//! Request-level serving integration tests: the continuous-batching layer
//! end to end, the pluggable scheduling-policy API (FIFO golden parity,
//! EDF/priority improvements), the decode-step context fix, and baseline
//! parity.

use hilos::baselines::VllmMultiNode;
use hilos::core::cluster::{ClusterEngine, RoundRobin};
use hilos::core::{
    ChunkMode, DeadlineEdf, DecodeStepExecutor, Fifo, HilosConfig, HilosSystem, PrefixCacheConfig,
    PriorityPreempt, SchedulingPolicy, ServeConfig, ServeEngine, ServingCampaign, SpillDecision,
    TraceReport,
};
use hilos::llm::{presets, BatchSpec, RequestClass, TraceConfig};
use hilos::metrics::LatencyStats;
use hilos::platform::SystemSpec;
use hilos::trace::{
    check_conservation, events_fnv, perfetto_json, prefill_chunk_totals, spans_nest, validate_json,
    EventKind, LatencyAttribution,
};

fn hilos(n: usize, sim_layers: u32) -> HilosSystem {
    HilosSystem::new(&SystemSpec::a100_smartssd(n), &presets::opt_30b(), &HilosConfig::new(n))
        .unwrap()
        .with_sim_layers(sim_layers)
}

/// The decode-step context fix: the old frozen-midpoint approximation
/// (`mid_ctx = context + output_len/2` for every step) must agree with the
/// exact per-step sum over `BatchSpec::context_at_step` to within a
/// fraction of a percent for the paper's shapes — which is why `run_decode`
/// may sample a centered window and scale.
#[test]
fn midpoint_approximation_matches_exact_per_step_sum() {
    let quiet = SpillDecision { buffered_tokens: 0, spill_now: false, spill_tokens: 0 };
    for (batch, ctx) in [(16u32, 32 * 1024u64), (16, 128 * 1024), (64, 16 * 1024)] {
        let spec = BatchSpec::new(batch, ctx, 64);
        let system = hilos(8, 2);
        let alpha = system.select_alpha(batch, ctx).unwrap();
        let mut exec = DecodeStepExecutor::new(&system).unwrap();

        let exact: f64 = (0..spec.output_len)
            .map(|i| {
                exec.execute_step(batch, spec.context_at_step(i), alpha, &quiet).unwrap().seconds
            })
            .sum();
        let mid_ctx = ctx + spec.output_len / 2;
        let midpoint = spec.output_len as f64
            * exec.execute_step(batch, mid_ctx, alpha, &quiet).unwrap().seconds;

        let rel = (midpoint - exact).abs() / exact;
        assert!(
            rel < 0.01,
            "midpoint diverged from exact sum at bs={batch} s={ctx}: {rel:.4} ({midpoint} vs {exact})"
        );
    }
}

/// `run_decode` (centered exact window) stays within tolerance of the full
/// exact per-step sum, so the refactor did not change reported results.
#[test]
fn run_decode_window_matches_full_sum() {
    let quiet = SpillDecision { buffered_tokens: 0, spill_now: false, spill_tokens: 0 };
    let system = hilos(8, 2);
    let spec = BatchSpec::new(16, 32 * 1024, 64);
    let alpha = system.select_alpha(spec.batch, spec.context_len).unwrap();
    let report = system.run_decode(spec.batch, spec.context_len, spec.output_len).unwrap();

    let mut exec = DecodeStepExecutor::new(&system).unwrap();
    let exact: f64 = (0..spec.output_len)
        .map(|i| {
            exec.execute_step(spec.batch, spec.context_at_step(i), alpha, &quiet).unwrap().seconds
        })
        .sum();
    // The windowed run interleaves writeback phases the quiet sum does
    // not, so allow a few percent.
    let rel = (report.decode_seconds - exact).abs() / exact;
    assert!(rel < 0.05, "run_decode diverged from exact sum: {rel:.4}");
}

/// Acceptance: a 10k-request heterogeneous trace completes under
/// continuous batching, reports sane tail latencies, and two invocations
/// with the same seed are bit-identical.
#[test]
fn ten_thousand_request_trace_is_deterministic() {
    let trace = TraceConfig::azure_mix(10_000, 42).generate().unwrap();
    let run = || {
        let mut campaign = ServingCampaign::new(hilos(8, 1));
        campaign.run_trace(&trace, &ServeConfig::new(32)).unwrap()
    };
    let report = run();
    assert_eq!(report.outcomes.len() + report.rejected.len(), 10_000);
    assert!(report.rejected.is_empty());
    assert!(report.peak_batch > 8, "traffic should fill the batch");
    assert!(report.steps > 10_000);
    let ttft = report.ttft_stats();
    let itl = report.itl_stats();
    assert!(ttft.p50 > 0.0 && ttft.p50 <= ttft.p95 && ttft.p95 <= ttft.p99);
    assert!(itl.p50 > 0.0 && itl.p99 >= itl.p50);
    assert!(report.tokens_per_second() > 0.0);

    let again = run();
    assert_eq!(report, again, "same seed must serve bit-identically");
}

/// Golden pin of the FIFO policy against the pre-policy-API engine: the
/// hard-wired admission loop of PR 2 produced exactly these numbers on
/// the seeded Azure-mix trace, and the policy-generic engine driving
/// [`Fifo`] must reproduce them bit for bit — every field below,
/// including an FNV-1a hash over every outcome's id, lengths and
/// f64-bit-exact lifecycle timestamps.
#[test]
fn fifo_is_bit_identical_to_pre_policy_engine() {
    let trace = TraceConfig::azure_mix(512, 42).generate().unwrap();
    let mut eng = ServeEngine::new(hilos(8, 1), ServeConfig::new(16)).unwrap();
    let r = eng.run_trace(&trace).unwrap();

    assert_eq!(r.policy, "fifo");
    assert_eq!(r.outcomes.len(), 512);
    assert_eq!(r.rejected.len(), 0);
    assert_eq!(r.steps, 6562);
    assert_eq!(r.windowed_steps, 4510, "quiet-window count moved");
    assert_eq!(r.elapsed_s.to_bits(), 0x40ce34c80da9f4da, "elapsed_s drifted: {}", r.elapsed_s);
    assert_eq!(r.generated_tokens, 99_823);
    assert_eq!(r.peak_batch, 16);
    assert_eq!(r.joins, 512);
    assert_eq!(r.evictions, 512);
    assert_eq!(r.preemptions, 0);
    assert_eq!(r.alpha_recomputes, 928);
    assert_eq!(r.mean_alpha.to_bits(), 0x3fe8000000000000);
    assert_eq!(r.host_pcie_bytes.to_bits(), 0x42fbac24b5b80000);
    assert_eq!(r.internal_read_bytes.to_bits(), 0x42cdabf18c400000);

    assert_eq!(
        hilos::core::outcome_lifecycle_fnv(&r.outcomes),
        0x988a698736a9c8fe,
        "per-outcome lifecycle timings drifted"
    );

    // The default config *is* ChunkMode::Off; spelling it out must
    // reproduce the same run bit for bit (the chunked-prefill refactor
    // added no drift to the legacy side-prefill path).
    let mut off =
        ServeEngine::new(hilos(8, 1), ServeConfig::new(16).with_chunk_mode(ChunkMode::Off))
            .unwrap();
    assert_eq!(off.run_trace(&trace).unwrap(), r, "explicit ChunkMode::Off drifted");
}

/// The long-prompt contended trace of the chunked-vs-lump comparison
/// (`bench_serving`'s `chunked` section): Long-heavy prompts stretched 8x,
/// arriving fast enough that prompt ingestion overlaps running decodes.
fn long_prompt_trace() -> Vec<hilos::llm::Request> {
    let mut cfg = TraceConfig::long_context(96, 42, 8).with_mean_interarrival(80);
    cfg.class_weights = [1, 3, 6];
    cfg.generate().unwrap()
}

/// Acceptance: with chunking on, the decode-gap tail under the
/// long-prompt contended trace improves measurably over inline lump
/// prefill — p95, p99 and worst-case all shrink, because a whole-prompt
/// ingestion can no longer land inside a single decode step. Both modes
/// do the same total prefill work (conservation), and the legacy
/// side-prefill mode charges none of it.
#[test]
fn chunked_prefill_tames_the_decode_gap_tail_vs_lump() {
    let trace = long_prompt_trace();
    let run = |mode| {
        let mut eng =
            ServeEngine::new(hilos(8, 1), ServeConfig::new(8).with_chunk_mode(mode)).unwrap();
        eng.run_trace(&trace).unwrap()
    };
    let off = run(ChunkMode::Off);
    let lump = run(ChunkMode::Lump);
    let chunked = run(ChunkMode::chunked());

    for r in [&off, &lump, &chunked] {
        assert_eq!(r.outcomes.len(), 96, "incomplete");
        assert!(r.rejected.is_empty() && r.shed.is_empty());
    }

    let (ls, cs) = (lump.step_itl_stats(), chunked.step_itl_stats());
    assert!(cs.p95 < ls.p95, "chunked p95 {} must beat lump {}", cs.p95, ls.p95);
    assert!(cs.p99 < ls.p99, "chunked p99 {} must beat lump {}", cs.p99, ls.p99);
    assert!(
        cs.max * 2.0 < ls.max,
        "chunking must collapse the worst decode gap: {} vs {}",
        cs.max,
        ls.max
    );

    // Conservation: same prompts, same total ingestion seconds. This run
    // uses auto-α, where the admission α depends on the live batch size
    // and can in principle drift between the modes, so the seconds check
    // is loose here — the strict 1e-9 telescoping claim is pinned under
    // fixed α by the conservation proptest.
    assert_eq!(lump.prefill.chunk_tokens, chunked.prefill.chunk_tokens);
    let (a, b) = (lump.prefill.prefill_seconds(), chunked.prefill.prefill_seconds());
    assert!((a - b).abs() < 0.01 * a, "prefill totals diverged: {a} vs {b}");

    // The legacy mode models no contention at all — the inline modes
    // exist precisely because its decode tail is optimistic.
    assert_eq!(off.prefill.chunks, 0);
    assert_eq!(off.prefill.prefill_seconds(), 0.0);

    // Interference is visible and attributed: most chunk time coincided
    // with running decodes on this trace.
    assert!(chunked.prefill.interference_seconds > chunked.prefill.stall_seconds);
    assert!(chunked.prefill.interference_ratio() > 0.0);
}

/// Every [`LatencyStats`] field as raw bits, so a pin catches a one-ulp
/// drift.
fn stats_bits(s: &LatencyStats) -> [u64; 6] {
    [
        s.count as u64,
        s.mean.to_bits(),
        s.p50.to_bits(),
        s.p95.to_bits(),
        s.p99.to_bits(),
        s.max.to_bits(),
    ]
}

/// Golden pin of the per-emission decode-gap statistics on three seeded
/// traces: the chunked-vs-lump gate's long-prompt trace (both inline
/// modes), the contended trace under priority preemption, and a pooled
/// two-deployment chunked cluster. How the engine stores step latencies
/// may change; these numbers may not.
#[test]
fn step_itl_stats_are_pinned_bit_for_bit() {
    let trace = long_prompt_trace();
    let run = |mode| {
        let mut eng =
            ServeEngine::new(hilos(8, 1), ServeConfig::new(8).with_chunk_mode(mode)).unwrap();
        eng.run_trace(&trace).unwrap()
    };
    let lump = run(ChunkMode::Lump).step_itl_stats();
    let chunked = run(ChunkMode::chunked()).step_itl_stats();
    let preempt = run_policy(Box::new(PriorityPreempt::new())).step_itl_stats();
    let chunked_config = || ServeConfig::new(16).with_chunk_mode(ChunkMode::chunked());
    let mut cluster = ClusterEngine::new(
        vec![
            ServeEngine::new(hilos(8, 1), chunked_config()).unwrap(),
            ServeEngine::new(hilos(4, 1), chunked_config()).unwrap(),
        ],
        Box::new(RoundRobin::new()),
    );
    let pooled = cluster.run_trace(&contended_trace()).unwrap().step_itl_stats();

    let pins: [(&str, LatencyStats, [u64; 6]); 4] = [
        (
            "lump",
            lump,
            [
                0x20cc,
                0x401c2254c7b2b81a,
                0x4018d2629bf75234,
                0x4029add1528869aa,
                0x403521bf0c359b5d,
                0x4053694161661e6c,
            ],
        ),
        (
            "chunked",
            chunked,
            [
                0x2183,
                0x401b9aa58757a0c4,
                0x401a6bb77a213d03,
                0x4026b17f032e84ef,
                0x40315c906cf31110,
                0x403165c402fed6ee,
            ],
        ),
        (
            "preempt",
            preempt,
            [
                0x1a0e,
                0x4000f1905d997602,
                0x3ffff59871a4ba46,
                0x4008510a396acf56,
                0x4008521356a5af28,
                0x4008524e40b3af04,
            ],
        ),
        (
            "pooled",
            pooled,
            [
                0x291d,
                0x4000df7c1d6b541c,
                0x40000b5932502635,
                0x40037dce7ba26456,
                0x40127aa60304c884,
                0x4017b5c88f7131f5,
            ],
        ),
    ];
    for (name, stats, bits) in pins {
        assert_eq!(stats_bits(&stats), bits, "{name}: decode-gap statistics drifted: {stats:?}");
    }
}

/// The step-latency multiset stays small: a run without prefill chunks
/// holds no plain sample and at most one counted value per memoized
/// operating point, and a chunked run holds exactly one plain sample per
/// step a chunk interfered with.
#[test]
fn step_latency_storage_is_bounded_by_the_memo() {
    let trace = TraceConfig::azure_mix(512, 42).generate().unwrap();
    let off = ServeEngine::new(hilos(8, 1), ServeConfig::new(16).with_chunk_mode(ChunkMode::Off))
        .unwrap()
        .run_trace(&trace)
        .unwrap();
    let h = &off.step_latency_s;
    assert!(h.sampled().is_empty(), "no chunk ran, so no step is a plain sample");
    assert!(!h.counted().is_empty() && h.counted().len() <= off.step_cache_entries);
    assert_eq!(h.len(), off.steps);

    let config = ServeConfig::new(8).with_chunk_mode(ChunkMode::chunked()).with_tracing(1 << 20);
    let chunked =
        ServeEngine::new(hilos(8, 1), config).unwrap().run_trace(&long_prompt_trace()).unwrap();
    assert_eq!(chunked.events_dropped, 0);
    // Every running request's emission at a step carries the step's
    // interference and the step's clock; steps advance the clock, so
    // distinct clocks are distinct steps.
    let interfered: std::collections::HashSet<u64> = chunked
        .events
        .iter()
        .filter(
            |e| matches!(e.kind, EventKind::Emit { interference_s, .. } if interference_s > 0.0),
        )
        .map(|e| e.t_s.to_bits())
        .collect();
    let h = &chunked.step_latency_s;
    assert!(!interfered.is_empty());
    assert_eq!(h.sampled().len(), interfered.len(), "one plain sample per interfered step");
    assert!(h.counted().len() <= chunked.step_cache_entries);
    assert_eq!(h.len(), chunked.steps);
}

/// Acceptance: EDF with overload shedding strictly lifts SLO goodput
/// over plain EDF on the overloaded seeded trace (the domino effect:
/// plain EDF burns capacity on requests whose deadlines are already
/// dead). The margin is recorded in `BENCH_serving.json` and gated
/// exactly in CI.
#[test]
fn edf_shedding_lifts_slo_goodput_under_overload() {
    let trace = TraceConfig::azure_mix(256, 42).with_mean_interarrival(10).generate().unwrap();
    let run = |policy: Box<dyn SchedulingPolicy>| {
        let mut eng = ServeEngine::with_policy(hilos(8, 1), ServeConfig::new(8), policy).unwrap();
        eng.run_trace(&trace).unwrap()
    };
    let plain = run(Box::new(DeadlineEdf::new()));
    let shed = run(Box::new(DeadlineEdf::with_shedding()));

    assert_eq!(plain.outcomes.len(), 256);
    assert!(plain.shed.is_empty());
    assert!(!shed.shed.is_empty(), "overload must shed");
    assert_eq!(shed.outcomes.len() + shed.shed.len(), 256, "partition must hold");
    assert!(
        shed.slo_token_goodput() > plain.slo_token_goodput(),
        "shedding goodput {} must beat plain EDF {}",
        shed.slo_token_goodput(),
        plain.slo_token_goodput()
    );
    assert!(shed.slo_hit_rate() > plain.slo_hit_rate());
    // Shedding sacrifices raw throughput only marginally.
    assert!(shed.tokens_per_second() > 0.9 * plain.tokens_per_second());
    // Every shed was past its deadline when dropped.
    for s in &shed.shed {
        assert!(s.overdue_s() >= 0.0, "{s:?}");
    }
    // Deterministic.
    assert_eq!(shed, run(Box::new(DeadlineEdf::with_shedding())));
}

/// The contended seeded trace of the three-way policy comparison
/// (`examples/serving_trace.rs`, `bench_serving`): arrivals at roughly
/// 2.3x the service rate, so a deep queue forms and admission order
/// decides who meets their SLO.
fn contended_trace() -> Vec<hilos::llm::Request> {
    TraceConfig { mean_interarrival_steps: 20, ..TraceConfig::azure_mix(256, 42) }
        .generate()
        .unwrap()
}

fn run_policy(policy: Box<dyn SchedulingPolicy>) -> TraceReport {
    let mut eng = ServeEngine::with_policy(hilos(8, 1), ServeConfig::new(8), policy).unwrap();
    eng.run_trace(&contended_trace()).unwrap()
}

/// Acceptance: on the contended seeded trace, deadline-EDF strictly
/// improves SLO goodput over FIFO, and priority-preemptive scheduling
/// strictly improves the high-class (Short) p95 TTFT over FIFO. All
/// three policies complete the full workload and release every shard
/// byte.
#[test]
fn edf_and_priority_beat_fifo_on_their_objectives() {
    let fifo = run_policy(Box::new(Fifo));
    let edf = run_policy(Box::new(DeadlineEdf::new()));
    let pp = run_policy(Box::new(PriorityPreempt::new()));

    for r in [&fifo, &edf, &pp] {
        assert_eq!(r.outcomes.len(), 256, "{}: incomplete", r.policy);
        assert!(r.rejected.is_empty(), "{}: rejected requests", r.policy);
    }

    // DeadlineEdf: strictly better SLO goodput and hit rate than FIFO.
    assert!(
        edf.slo_token_goodput() > fifo.slo_token_goodput(),
        "EDF goodput {} must beat FIFO {}",
        edf.slo_token_goodput(),
        fifo.slo_token_goodput()
    );
    assert!(
        edf.slo_hit_rate() > fifo.slo_hit_rate(),
        "EDF hit rate {} must beat FIFO {}",
        edf.slo_hit_rate(),
        fifo.slo_hit_rate()
    );

    // PriorityPreempt: strictly better high-class p95 TTFT than FIFO —
    // by a wide margin, so the gate survives any future re-tuning noise.
    let short_p95 = |r: &TraceReport| r.class_report(RequestClass::Short).unwrap().ttft.p95;
    assert!(
        short_p95(&pp) < short_p95(&fifo) / 10.0,
        "priority-preempt Short p95 TTFT {} must be far below FIFO {}",
        short_p95(&pp),
        short_p95(&fifo)
    );
    assert!(pp.preemptions > 0, "the contended trace must actually preempt");
    assert_eq!(fifo.preemptions, 0);
    assert_eq!(edf.preemptions, 0, "EDF is admission-only");

    // The preemption tax is visible but bounded: total throughput stays
    // within a few percent of FIFO's.
    assert!(pp.tokens_per_second() > 0.9 * fifo.tokens_per_second());

    // Per-class breakdown is present for all three classes.
    for r in [&fifo, &edf, &pp] {
        assert_eq!(r.class_breakdown().len(), 3, "{}", r.policy);
    }
}

/// The shared-prefix long-context trace of the prefix-cache comparison
/// (`bench_serving`'s `prefix_cache` section): prompts stretched 8x into
/// the paper's long-context regime, every fresh conversation opening
/// with the same 8192-token document prefix, and 60% of arrivals
/// continuing a session whose whole served context is cached. Light
/// arrival pressure, so TTFT is prefill-bound — the regime prefix reuse
/// exists for.
fn shared_prefix_trace() -> Vec<hilos::llm::Request> {
    let shared = hilos::llm::SharedPrefixConfig {
        system_prompt_tokens: 8192,
        follow_up_fraction: 0.6,
        follow_up_tokens: 256,
        max_turns: 8,
    };
    TraceConfig::long_context(192, 42, 8)
        .with_mean_interarrival(100)
        .with_shared_prefix(shared)
        .generate()
        .unwrap()
}

/// Acceptance: on the seeded shared-prefix trace, turning the prefix
/// cache on cuts TTFT p95 by at least 2x while serving exactly the same
/// tokens — hits skip their prefix's prefill chunks, and the recall I/O
/// they pay instead is priced by the residency ladder. The margin is
/// recorded in `BENCH_serving.json` and gated in CI; with the cache off
/// (the default) the report's cache section stays all-zero and the FIFO
/// golden pins above are untouched.
#[test]
fn prefix_cache_halves_ttft_p95_on_shared_prefix_trace() {
    let trace = shared_prefix_trace();
    let run = |cache: Option<PrefixCacheConfig>| {
        let mut cfg = ServeConfig::new(16);
        if let Some(pc) = cache {
            cfg = cfg.with_prefix_cache(pc);
        }
        let mut eng = ServeEngine::new(hilos(8, 1), cfg).unwrap();
        eng.run_trace(&trace).unwrap()
    };
    let off = run(None);
    let on = run(Some(PrefixCacheConfig::default()));

    // Identical service: same request set, same per-request tokens.
    assert_eq!(on.generated_tokens, off.generated_tokens);
    let served = |r: &TraceReport| {
        let mut v: Vec<(u64, u64)> = r.outcomes.iter().map(|o| (o.id, o.output_len)).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(served(&on), served(&off));
    assert!(on.rejected.is_empty() && off.rejected.is_empty());

    // The cache actually worked.
    assert!(on.prefix.hits > 0, "shared-prefix trace never hit");
    assert!(on.prefix.hit_rate() > 0.5, "most arrivals share a prefix: {}", on.prefix.hit_rate());
    assert!(on.prefix.saved_prefill_tokens > 0);
    assert_eq!(off.prefix.hits, 0, "cache off must not probe");

    // The headline: reuse at least halves the TTFT tail.
    let (t_on, t_off) = (on.ttft_stats(), off.ttft_stats());
    assert!(
        t_on.p95 * 2.0 <= t_off.p95,
        "cache-on TTFT p95 {} must be at most half of cache-off {}",
        t_on.p95,
        t_off.p95
    );
    assert!(t_on.p50 < t_off.p50, "the median must improve too");

    // Deterministic both ways.
    assert_eq!(on, run(Some(PrefixCacheConfig::default())));
}

/// Golden pin of the lifecycle event stream: on the seeded shared-prefix
/// trace under chunked prefill and the prefix cache, a tracing-enabled
/// run must (1) leave every serving number bit-identical to the untraced
/// run — emission is observational — and (2) produce exactly this
/// FNV-1a event-stream hash, gated again by CI's `trace-smoke` job. The
/// same stream must satisfy the conservation law (every arrival
/// terminates exactly once), reconcile its chunk events against
/// [`TraceReport::prefill`], decompose every completed request's e2e
/// additively, and export as a Perfetto document whose spans nest.
#[test]
fn event_stream_is_deterministic_and_reconciles_on_shared_prefix_trace() {
    let trace = shared_prefix_trace();
    let run = |tracing: Option<usize>| {
        let mut cfg = ServeConfig::new(16)
            .with_chunk_mode(ChunkMode::chunked())
            .with_prefix_cache(PrefixCacheConfig::default());
        if let Some(cap) = tracing {
            cfg = cfg.with_tracing(cap);
        }
        let mut eng = ServeEngine::new(hilos(8, 1), cfg).unwrap();
        eng.run_trace(&trace).unwrap()
    };
    let traced = run(Some(1 << 20));
    let plain = run(None);

    // Tracing is observational: strip the events and the reports agree
    // bit for bit; off leaves the stream empty.
    assert!(plain.events.is_empty() && plain.events_dropped == 0);
    assert!(!traced.events.is_empty());
    assert_eq!(traced.events_dropped, 0, "ring capacity must retain the whole run");
    let mut stripped = traced.clone();
    stripped.events = vec![];
    assert_eq!(stripped, plain, "emission must not perturb the serving numbers");

    // The pinned stream hash — deterministic across runs and platforms.
    assert_eq!(traced.events, run(Some(1 << 20)).events, "event stream must be reproducible");
    assert_eq!(
        events_fnv(&traced.events),
        0xb4a9f0c6ea15d652,
        "the lifecycle event stream drifted"
    );

    // Conservation: every arrival terminates exactly once.
    let cons = check_conservation(&[&traced.events]);
    assert!(cons.holds(), "conservation violated: {cons:?}");
    assert_eq!(cons.arrived, 192);
    assert_eq!(cons.completed, traced.outcomes.len());

    // Chunk events reconcile against the report's prefill breakdown.
    let totals = prefill_chunk_totals(&traced.events);
    assert_eq!(totals.chunks, traced.prefill.chunks);
    assert_eq!(totals.tokens, traced.prefill.chunk_tokens);
    assert!((totals.interference_seconds - traced.prefill.interference_seconds).abs() < 1e-9);
    assert!((totals.stall_seconds - traced.prefill.stall_seconds).abs() < 1e-9);

    // Per-request attribution: one row per completed request, each
    // decomposing its end-to-end latency additively and agreeing with
    // the outcome's own timestamps.
    let attr = LatencyAttribution::analyze(&[&traced.events]);
    assert_eq!(attr.rows.len(), traced.outcomes.len());
    for o in &traced.outcomes {
        let row = attr.get(o.id).expect("every outcome has a row");
        // e2e_s is the component fold; it matches the outcome's own
        // timestamps to within a ulp (see `RequestAttribution::e2e_s`).
        let e2e = o.finished_s - o.arrival_s;
        assert!((row.e2e_s - e2e).abs() <= 4.0 * f64::EPSILON * e2e.max(1.0));
        assert_eq!(row.ttft_s, o.first_token_s - o.arrival_s);
        assert_eq!(row.components_sum(), row.e2e_s, "request {} leaks time", o.id);
    }

    // The exporter produces a valid Chrome-trace document whose request
    // and phase spans nest on every track.
    let doc = perfetto_json(&[&traced.events]);
    validate_json(&doc).unwrap();
    assert!(spans_nest(&doc).unwrap() > traced.outcomes.len());
}

/// Baseline parity: the same trace driven through the serial
/// recompute-from-prefill vLLM baseline yields lower goodput than HILOS
/// continuous batching in the paper's regime — a >100B model whose KV
/// spills out of GPU memory (Fig. 17b). (For small models at short
/// context, the all-resident vLLM testbed legitimately wins; the
/// near-storage design pays off exactly where HBM capacity runs out.)
#[test]
fn continuous_batching_beats_serial_vllm_on_goodput() {
    let model = presets::opt_175b();
    let trace = TraceConfig::long_context(100, 42, 8).generate().unwrap();
    let deadline = 24.0 * 3600.0;

    let system = HilosSystem::new(&SystemSpec::a100_smartssd(16), &model, &HilosConfig::new(16))
        .unwrap()
        .with_sim_layers(1);
    let mut campaign = ServingCampaign::new(system);
    let h = campaign.run_trace(&trace, &ServeConfig::new(32).with_deadline(deadline)).unwrap();
    assert!(h.rejected.is_empty(), "all long-context requests should place");

    let v = VllmMultiNode::paper_testbed().run_trace(&model, &trace, deadline).unwrap();

    assert!(
        h.tokens_per_second() > v.tokens_per_second(),
        "HILOS {} tok/s vs vLLM {} tok/s",
        h.tokens_per_second(),
        v.tokens_per_second()
    );
    assert!(
        h.token_goodput() >= v.token_goodput(),
        "HILOS goodput {} vs vLLM {}",
        h.token_goodput(),
        v.token_goodput()
    );
}
