//! `bench_serving` — the request-level serving smoke bench.
//!
//! Six measurements, recorded into `BENCH_serving.json` (current
//! directory, or the path given as the first argument):
//!
//! 1. **Trace throughput** — a 1M-request seeded heterogeneous trace
//!    served by the continuous-batching layer, recording wall-clock
//!    requests/s and the step-cache hit behavior. The run asserts its
//!    60 s wall-clock budget inline.
//! 2. **Policy comparison** — the contended 256-request Azure-mix trace
//!    served under FIFO, deadline-EDF and priority-preemptive
//!    scheduling. The simulation is bit-deterministic, so CI gates the
//!    exact claims: EDF beats FIFO on SLO goodput, priority preemption
//!    beats FIFO on high-class (Short) p95 TTFT.
//! 3. **Chunked prefill** — the long-prompt contended trace served with
//!    inline lump prefill vs token-budgeted chunks, plus a
//!    `ChunkMode::Off` golden-equivalence smoke (the FNV constant
//!    `tests/serving.rs` pins). CI gates the chunking claim exactly:
//!    the decode-gap tail (per-emission ITL p95/p99/max) improves.
//! 4. **Overload shedding** — plain deadline-EDF vs EDF with shedding on
//!    the overloaded seeded trace; CI gates the SLO-goodput lift.
//! 5. **Prefix KV-cache reuse** — the seeded shared-prefix long-context
//!    trace (8192-token shared document prefix, 60% session follow-ups)
//!    served with the cache off and on. Hits skip their prefix's prefill
//!    chunks and pay the residency ladder's recall I/O instead; the
//!    `cache-smoke` CI job gates the claim exactly: TTFT p95 improves
//!    >= 2x while every request generates the same tokens.
//! 6. **Lifecycle tracing** — the shared-prefix trace re-run with the
//!    event ring on: the deterministic stream FNV (the `trace-smoke` CI
//!    job's pin), event conservation, the exact additive latency
//!    attribution, and a schema-checked Perfetto export. The 1M-request
//!    trace in (1) runs with tracing off and asserts its 60 s wall-clock
//!    budget inline — the off path must stay free.
//!
//! ```text
//! Usage: bench_serving [output.json]
//! ```

use hilos_core::{
    ChunkMode, DeadlineEdf, Fifo, HilosConfig, HilosSystem, PrefixCacheConfig, PriorityPreempt,
    SchedulingPolicy, ServeConfig, ServeEngine,
};
use hilos_llm::{presets, RequestClass, SharedPrefixConfig, TraceConfig};
use hilos_platform::SystemSpec;
use std::time::Instant;

fn hilos_system(n: usize) -> HilosSystem {
    HilosSystem::new(&SystemSpec::a100_smartssd(n), &presets::opt_30b(), &HilosConfig::new(n))
        .unwrap()
        .with_sim_layers(1)
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_serving.json".to_string());

    // -- 1: continuous-batching trace throughput (1M requests) --
    let trace = TraceConfig::azure_mix(1_000_000, 42).generate().expect("valid trace config");
    let system =
        HilosSystem::new(&SystemSpec::a100_smartssd(8), &presets::opt_30b(), &HilosConfig::new(8))
            .unwrap()
            .with_sim_layers(1);
    let start = Instant::now();
    let report = ServeEngine::new(system, ServeConfig::new(32)).unwrap().run_trace(&trace).unwrap();
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(report.outcomes.len(), trace.len(), "trace must complete");
    // Tracing is off here, so every emission site finds no event ring
    // (one predictable branch); the 1M-request budget doubles as the
    // zero-cost guard for the instrumented engine.
    assert!(wall < 60.0, "1M-request trace blew its wall-clock budget: {wall:.1}s");
    assert!(report.events.is_empty(), "tracing off must retain no events");
    let rps = trace.len() as f64 / wall;
    eprintln!(
        "trace: {} requests in {wall:.3}s wall ({rps:.0} req/s), {} steps, \
         {} cached operating points, simulated {:.2} tok/s",
        trace.len(),
        report.steps,
        report.step_cache_entries,
        report.tokens_per_second()
    );

    // -- 2: three-way scheduling-policy comparison --
    let contended = TraceConfig { mean_interarrival_steps: 20, ..TraceConfig::azure_mix(256, 42) }
        .generate()
        .expect("valid trace config");
    let policy_rows: Vec<String> = [
        Box::new(Fifo) as Box<dyn SchedulingPolicy>,
        Box::new(DeadlineEdf::new()),
        Box::new(PriorityPreempt::new()),
    ]
    .into_iter()
    .map(|policy| {
        let sys = HilosSystem::new(
            &SystemSpec::a100_smartssd(8),
            &presets::opt_30b(),
            &HilosConfig::new(8),
        )
        .unwrap()
        .with_sim_layers(1);
        let name = policy.name();
        let r = ServeEngine::with_policy(sys, ServeConfig::new(8), policy)
            .unwrap()
            .run_trace(&contended)
            .unwrap();
        assert_eq!(r.outcomes.len(), contended.len(), "{name}: trace must complete");
        let short = r.class_report(RequestClass::Short).expect("Short class completed");
        eprintln!(
            "policy {name}: slo_goodput {:.2} tok/s, hit {:.1}%, Short TTFT p95 {:.1}s, \
             {} preemptions, {} of {} steps windowed",
            r.slo_token_goodput(),
            r.slo_hit_rate() * 100.0,
            short.ttft.p95,
            r.preemptions,
            r.windowed_steps,
            r.steps,
        );
        format!(
            "{{\"policy\": \"{name}\", \"slo_goodput_tokens_per_second\": {:.4}, \
             \"slo_hit_rate\": {:.4}, \"short_ttft_p95_seconds\": {:.4}, \
             \"short_e2e_p95_seconds\": {:.4}, \"preemptions\": {}, \
             \"tokens_per_second\": {:.4}, \"steps\": {}, \"windowed_steps\": {}}}",
            r.slo_token_goodput(),
            r.slo_hit_rate(),
            short.ttft.p95,
            short.e2e.p95,
            r.preemptions,
            r.tokens_per_second(),
            r.steps,
            r.windowed_steps,
        )
    })
    .collect();

    // -- 3: chunked-prefill interference comparison --
    // Long-heavy prompts stretched 8x: prompt ingestion is the dominant
    // contender for device bandwidth, so the chunk mode decides the
    // decode-gap tail. Mirrors the pin in `tests/serving.rs`.
    let long_trace = {
        let mut cfg = TraceConfig::long_context(96, 42, 8).with_mean_interarrival(80);
        cfg.class_weights = [1, 3, 6];
        cfg.generate().expect("valid trace config")
    };
    let chunk_rows: Vec<String> =
        [("off", ChunkMode::Off), ("lump", ChunkMode::lump()), ("chunked", ChunkMode::chunked())]
            .into_iter()
            .map(|(name, mode)| {
                let r =
                    ServeEngine::new(hilos_system(8), ServeConfig::new(8).with_chunk_mode(mode))
                        .unwrap()
                        .run_trace(&long_trace)
                        .unwrap();
                assert_eq!(r.outcomes.len(), long_trace.len(), "{name}: trace must complete");
                let s = r.step_itl_stats();
                let ttft = r.ttft_stats();
                eprintln!(
            "chunk mode {name}: decode-gap p95 {:.2}s p99 {:.2}s max {:.2}s, TTFT p95 {:.0}s, \
             {} chunks ({} tokens), interference {:.0}s, stall {:.0}s, \
             {} of {} steps windowed",
            s.p95,
            s.p99,
            s.max,
            ttft.p95,
            r.prefill.chunks,
            r.prefill.chunk_tokens,
            r.prefill.interference_seconds,
            r.prefill.stall_seconds,
            r.windowed_steps,
            r.steps,
        );
                format!(
                    "{{\"mode\": \"{name}\", \"step_itl_p50_seconds\": {:.4}, \
             \"step_itl_p95_seconds\": {:.4}, \"step_itl_p99_seconds\": {:.4}, \
             \"step_itl_max_seconds\": {:.4}, \"ttft_p95_seconds\": {:.4}, \
             \"prefill_chunks\": {}, \"prefill_chunk_tokens\": {}, \
             \"interference_seconds\": {:.4}, \"stall_seconds\": {:.4}, \
             \"elapsed_seconds\": {:.4}, \"steps\": {}, \"windowed_steps\": {}}}",
                    s.p50,
                    s.p95,
                    s.p99,
                    s.max,
                    ttft.p95,
                    r.prefill.chunks,
                    r.prefill.chunk_tokens,
                    r.prefill.interference_seconds,
                    r.prefill.stall_seconds,
                    r.elapsed_s,
                    r.steps,
                    r.windowed_steps,
                )
            })
            .collect();

    // ChunkMode::Off golden-equivalence smoke: the refactored engine must
    // still reproduce the FNV constant `tests/serving.rs` pins for the
    // pre-chunking engine on the seeded Azure-mix trace.
    let golden_trace = TraceConfig::azure_mix(512, 42).generate().expect("valid trace config");
    let golden =
        ServeEngine::new(hilos_system(8), ServeConfig::new(16).with_chunk_mode(ChunkMode::Off))
            .unwrap()
            .run_trace(&golden_trace)
            .unwrap();
    let off_fnv = hilos_core::outcome_lifecycle_fnv(&golden.outcomes);
    eprintln!("ChunkMode::Off golden FNV: {off_fnv:#018x}");

    // -- 4: overload shedding --
    let overload = TraceConfig::azure_mix(256, 42)
        .with_mean_interarrival(10)
        .generate()
        .expect("valid trace config");
    let shed_rows: Vec<String> = [
        Box::new(DeadlineEdf::new()) as Box<dyn SchedulingPolicy>,
        Box::new(DeadlineEdf::with_shedding()),
    ]
    .into_iter()
    .map(|policy| {
        let name = policy.name();
        let r = ServeEngine::with_policy(hilos_system(8), ServeConfig::new(8), policy)
            .unwrap()
            .run_trace(&overload)
            .unwrap();
        assert_eq!(
            r.outcomes.len() + r.rejected.len() + r.shed.len(),
            overload.len(),
            "{name}: requests lost"
        );
        eprintln!(
            "shedding {name}: slo_goodput {:.3} tok/s, hit {:.1}%, {} completed, {} shed",
            r.slo_token_goodput(),
            r.slo_hit_rate() * 100.0,
            r.outcomes.len(),
            r.shed.len(),
        );
        format!(
            "{{\"policy\": \"{name}\", \"slo_goodput_tokens_per_second\": {:.4}, \
             \"slo_hit_rate\": {:.4}, \"completed\": {}, \"shed\": {}, \
             \"tokens_per_second\": {:.4}}}",
            r.slo_token_goodput(),
            r.slo_hit_rate(),
            r.outcomes.len(),
            r.shed.len(),
            r.tokens_per_second(),
        )
    })
    .collect();

    // -- 5: prefix KV-cache reuse on the shared-prefix trace --
    // Mirrors the acceptance test in `tests/serving.rs`: prompts
    // stretched 8x into the long-context regime, every fresh
    // conversation opening with the same 8192-token document prefix, 60%
    // of arrivals continuing a cached session, and arrivals light enough
    // that TTFT is prefill-bound.
    let shared = SharedPrefixConfig {
        system_prompt_tokens: 8192,
        follow_up_fraction: 0.6,
        follow_up_tokens: 256,
        max_turns: 8,
    };
    let prefix_trace = TraceConfig::long_context(192, 42, 8)
        .with_mean_interarrival(100)
        .with_shared_prefix(shared)
        .generate()
        .expect("valid trace config");
    let cache_run = |cache: Option<PrefixCacheConfig>| {
        let mut cfg = ServeConfig::new(16);
        if let Some(pc) = cache {
            cfg = cfg.with_prefix_cache(pc);
        }
        let r = ServeEngine::new(hilos_system(8), cfg).unwrap().run_trace(&prefix_trace).unwrap();
        assert_eq!(r.outcomes.len(), prefix_trace.len(), "prefix trace must complete");
        r
    };
    let cache_off = cache_run(None);
    let cache_on = cache_run(Some(PrefixCacheConfig::default()));
    assert_eq!(
        cache_on.generated_tokens, cache_off.generated_tokens,
        "cache must not change what is served"
    );
    let (ttft_off, ttft_on) = (cache_off.ttft_stats(), cache_on.ttft_stats());
    let pc = &cache_on.prefix;
    eprintln!(
        "prefix cache: TTFT p95 {:.1}s -> {:.1}s ({:.2}x), hit rate {:.1}%, \
         {} prefill tokens saved, {} demoted / {} recalled bytes",
        ttft_off.p95,
        ttft_on.p95,
        ttft_off.p95 / ttft_on.p95,
        pc.hit_rate() * 100.0,
        pc.saved_prefill_tokens,
        pc.demoted_bytes(),
        pc.recalled_bytes(),
    );

    // -- 6: deterministic lifecycle tracing --
    // The shared-prefix trace once more with the event ring on: the
    // stream FNV is the pin the `trace-smoke` CI job gates, conservation
    // must hold, the attribution must decompose every completed
    // request's e2e exactly, and the Perfetto export must parse with
    // properly nested spans.
    use hilos_core::trace::{
        check_conservation, events_fnv, perfetto_json, spans_nest, validate_json,
        LatencyAttribution,
    };
    let traced = ServeEngine::new(
        hilos_system(8),
        ServeConfig::new(16)
            .with_chunk_mode(ChunkMode::chunked())
            .with_prefix_cache(PrefixCacheConfig::default())
            .with_tracing(1 << 20),
    )
    .unwrap()
    .run_trace(&prefix_trace)
    .unwrap();
    assert_eq!(traced.events_dropped, 0, "event ring must not wrap");
    let stream_fnv = events_fnv(&traced.events);
    let rings = [traced.events.as_slice()];
    let cons = check_conservation(&rings);
    assert!(cons.holds(), "event conservation violated: {cons:?}");
    let attr = LatencyAttribution::analyze(&rings);
    assert_eq!(attr.rows.len(), traced.outcomes.len(), "one attribution row per completion");
    assert!(
        attr.rows.iter().all(|r| r.components_sum() == r.e2e_s),
        "attribution must sum to e2e bit-exactly"
    );
    let doc = perfetto_json(&rings);
    validate_json(&doc).expect("Perfetto export must be valid JSON");
    let nested = spans_nest(&doc).expect("request and phase spans must nest");
    eprintln!(
        "tracing: {} events (0 dropped), stream FNV {stream_fnv:#018x}, \
         {} requests conserved, {} attribution rows, {nested} nested spans",
        traced.events.len(),
        cons.arrived,
        attr.rows.len(),
    );

    let json = format!(
        "{{\n  \"bench\": \"serving\",\n  \"note\": \"1M-request continuous-batching trace \
         throughput, the three-way scheduling-policy comparison on the contended seeded trace, \
         chunked prefill, overload shedding, prefix KV-cache reuse and lifecycle tracing\",\n  \
         \"trace\": {{\"requests\": {}, \
         \"wall_seconds\": {wall:.4}, \"requests_per_second\": {rps:.1}, \
         \"serving_steps\": {}, \"step_cache_entries\": {}, \"peak_batch\": {}, \
         \"simulated_tokens_per_second\": {:.3}, \"ttft_p99_seconds\": {:.3}}},\n  \
         \"policies\": [\n    {}\n  ],\n  \
         \"chunked\": {{\n    \"requests\": {}, \"prompt_scale\": 8, \
         \"off_golden_fnv\": \"{off_fnv:#018x}\",\n    \"modes\": [\n      {}\n    ]\n  }},\n  \
         \"shedding\": [\n    {}\n  ],\n  \
         \"prefix_cache\": {{\n    \"requests\": {}, \"system_prompt_tokens\": 8192, \
         \"follow_up_fraction\": 0.6, \"prompt_scale\": 8,\n    \
         \"generated_tokens_off\": {}, \"generated_tokens_on\": {},\n    \
         \"off\": {{\"ttft_p50_seconds\": {:.4}, \"ttft_p95_seconds\": {:.4}, \"hits\": {}}},\n    \
         \"on\": {{\"ttft_p50_seconds\": {:.4}, \"ttft_p95_seconds\": {:.4}, \"lookups\": {}, \
         \"hits\": {}, \"hit_rate\": {:.4}, \"saved_prefill_tokens\": {}, \
         \"recall_seconds\": {:.4}, \"demoted_bytes\": {}, \"recalled_bytes\": {}}},\n    \
         \"ttft_p50_off_vs_on\": {:.3}, \"ttft_p95_off_vs_on\": {:.3}\n  }},\n  \
         \"tracing\": {{\"requests\": {}, \"events\": {}, \"events_dropped\": 0, \
         \"event_stream_fnv\": \"{stream_fnv:#018x}\", \"conserved_arrivals\": {}, \
         \"attribution_rows\": {}, \"attribution_exact\": true, \"json_valid\": true, \
         \"nested_spans\": {nested}, \"untraced_wall_seconds\": {wall:.4}}}\n}}\n",
        trace.len(),
        report.steps,
        report.step_cache_entries,
        report.peak_batch,
        report.tokens_per_second(),
        report.ttft_stats().p99,
        policy_rows.join(",\n    "),
        long_trace.len(),
        chunk_rows.join(",\n      "),
        shed_rows.join(",\n    "),
        prefix_trace.len(),
        cache_off.generated_tokens,
        cache_on.generated_tokens,
        ttft_off.p50,
        ttft_off.p95,
        cache_off.prefix.hits,
        ttft_on.p50,
        ttft_on.p95,
        pc.lookups,
        pc.hits,
        pc.hit_rate(),
        pc.saved_prefill_tokens,
        pc.recall_seconds,
        pc.demoted_bytes(),
        pc.recalled_bytes(),
        ttft_off.p50 / ttft_on.p50,
        ttft_off.p95 / ttft_on.p95,
        prefix_trace.len(),
        traced.events.len(),
        cons.arrived,
        attr.rows.len(),
    );
    std::fs::write(&out_path, &json).expect("write BENCH_serving.json");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
