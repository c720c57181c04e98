//! Request-level serving demo: a 10,000-request heterogeneous trace
//! served with continuous batching on a HILOS deployment, in the paper's
//! long-context >100B regime, with the serial vLLM baseline (Fig. 17b's
//! configuration) driven from the same trace for a goodput comparison —
//! then a three-way scheduling-policy shoot-out (FIFO vs deadline-EDF vs
//! priority-preemptive) on a contended Azure-mix trace.
//!
//! Finishes with a traced re-run of the shared-prefix scenario: pass
//! `--trace-out <path>` to write the lifecycle event stream as a
//! Chrome/Perfetto JSON document that <https://ui.perfetto.dev> opens
//! directly.
//!
//! ```sh
//! cargo run --release --example serving_trace -- --trace-out serving.trace.json
//! ```

use hilos::baselines::VllmMultiNode;
use hilos::core::{
    ChunkMode, DeadlineEdf, Fifo, HilosConfig, HilosSystem, PrefixCacheConfig, PriorityPreempt,
    SchedulingPolicy, ServeConfig, ServeEngine, ServingCampaign,
};
use hilos::llm::{presets, RequestClass, SharedPrefixConfig, TraceConfig};
use hilos::metrics::{fmt_bytes, fmt_seconds, Table};
use hilos::platform::SystemSpec;
use hilos::trace::{events_fnv, perfetto_json, LatencyAttribution};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace-out" => {
                trace_out = Some(args.next().expect("--trace-out needs a path").into());
            }
            other => panic!("unknown argument {other:?} (supported: --trace-out <path>)"),
        }
    }
    let model = presets::opt_175b();
    // 10k requests, Azure class mix with prompts stretched 4x into the
    // long-context regime, arrivals thinned to roughly the deployment's
    // service rate so queueing stays finite.
    let trace =
        TraceConfig { mean_interarrival_steps: 8, ..TraceConfig::long_context(10_000, 42, 4) }
            .generate()?;

    let system = HilosSystem::new(&SystemSpec::a100_smartssd(16), &model, &HilosConfig::new(16))?
        .with_sim_layers(1);
    let mut campaign = ServingCampaign::new(system);
    let config = ServeConfig::new(32).with_deadline(6.0 * 3600.0);

    println!(
        "Serving {} requests of {} on 16 SmartSSDs (max batch {}, deadline {})\n",
        trace.len(),
        model.name(),
        config.max_batch,
        fmt_seconds(config.deadline_s),
    );
    let wall = std::time::Instant::now();
    let report = campaign.run_trace(&trace, &config)?;
    let wall = wall.elapsed();

    let mut t = Table::new(vec!["metric", "p50", "p95", "p99", "mean", "max"]);
    for (name, s) in [
        ("TTFT", report.ttft_stats()),
        ("inter-token", report.itl_stats()),
        ("end-to-end", report.e2e_stats()),
    ] {
        t.row(vec![
            name.into(),
            fmt_seconds(s.p50),
            fmt_seconds(s.p95),
            fmt_seconds(s.p99),
            fmt_seconds(s.mean),
            fmt_seconds(s.max),
        ]);
    }
    println!("{t}");

    println!(
        "Completed {} / rejected {} over {} serving steps, {} of them in quiet windows \
         ({} simulated, {:.1?} wall)",
        report.outcomes.len(),
        report.rejected.len(),
        report.steps,
        report.windowed_steps,
        fmt_seconds(report.elapsed_s),
        wall,
    );
    println!(
        "Continuous batching: peak batch {}, {} joins, {} evictions, α re-selected {} times \
         (mean α {:.2}), {} cached operating points",
        report.peak_batch,
        report.joins,
        report.evictions,
        report.alpha_recomputes,
        report.mean_alpha,
        report.step_cache_entries,
    );
    println!(
        "Throughput {:.2} tok/s; goodput {:.2} tok/s ({:.1}% of requests met the deadline)",
        report.tokens_per_second(),
        report.token_goodput(),
        report.deadline_hit_rate() * 100.0,
    );
    println!(
        "Traffic: {} over the host interconnect, {} over the devices' internal paths; \
         array endurance used {:.4}%\n",
        fmt_bytes(report.host_pcie_bytes),
        fmt_bytes(report.internal_read_bytes),
        campaign.endurance_used() * 100.0,
    );

    // The same trace through the serial recompute-from-prefill vLLM
    // baseline (2 nodes x 4 A6000): KV for a >100B model spills to host
    // swap, and without continuous batching every request waits its turn.
    let vllm = VllmMultiNode::paper_testbed().run_trace(&model, &trace, config.deadline_s)?;
    let mut cmp = Table::new(vec!["system", "tok/s", "goodput tok/s", "TTFT p99"]);
    cmp.row(vec![
        "HILOS (continuous batching)".into(),
        format!("{:.2}", report.tokens_per_second()),
        format!("{:.2}", report.token_goodput()),
        fmt_seconds(report.ttft_stats().p99),
    ]);
    cmp.row(vec![
        "vLLM 2x4xA6000 (serial)".into(),
        format!("{:.2}", vllm.tokens_per_second()),
        format!("{:.2}", vllm.token_goodput()),
        fmt_seconds(vllm.ttft_stats().p99),
    ]);
    println!("{cmp}");
    println!(
        "HILOS serves {:.1}x the vLLM baseline's throughput on this trace\n",
        report.tokens_per_second() / vllm.tokens_per_second().max(1e-12),
    );

    // -- Scheduling-policy comparison ------------------------------------
    // A contended Azure-mix trace (arrivals ~2.3x the service rate) on a
    // smaller deployment: admission order now decides who meets their
    // SLO. FIFO lets tight-deadline shorts rot behind loose-deadline
    // longs; EDF re-orders admission by absolute deadline; the priority
    // policy additionally preempts decoding low-priority longs the moment
    // a high-priority short arrives.
    let contended = TraceConfig { mean_interarrival_steps: 20, ..TraceConfig::azure_mix(256, 42) }
        .generate()?;
    println!(
        "Policy comparison: {} contended requests of {} on 8 SmartSSDs (max batch 8)\n",
        contended.len(),
        presets::opt_30b().name(),
    );
    let mut t = Table::new(vec![
        "policy",
        "SLO goodput tok/s",
        "SLO hit rate",
        "Short TTFT p95",
        "Short e2e p95",
        "preemptions",
    ]);
    for policy in [
        Box::new(Fifo) as Box<dyn SchedulingPolicy>,
        Box::new(DeadlineEdf::new()),
        Box::new(PriorityPreempt::new()),
    ] {
        let sys = HilosSystem::new(
            &SystemSpec::a100_smartssd(8),
            &presets::opt_30b(),
            &HilosConfig::new(8),
        )?
        .with_sim_layers(1);
        let mut campaign = ServingCampaign::new(sys);
        let r = campaign.run_trace_with_policy(&contended, &ServeConfig::new(8), policy)?;
        let short = r.class_report(RequestClass::Short).expect("Short class completed");
        t.row(vec![
            r.policy.clone(),
            format!("{:.2}", r.slo_token_goodput()),
            format!("{:.1}%", r.slo_hit_rate() * 100.0),
            fmt_seconds(short.ttft.p95),
            fmt_seconds(short.e2e.p95),
            r.preemptions.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "EDF admits by absolute deadline, so the same hardware meets far more SLOs; \
         priority preemption additionally collapses the high-class TTFT tail.\n"
    );

    // -- Chunked prefill: lump vs token-budgeted ingestion ---------------
    // A Long-heavy 8x-stretched trace where prompt ingestion is the
    // dominant bandwidth contender. Lump mode lands each whole prompt
    // inside one serving step (every running decode absorbs the spike);
    // chunking bounds the per-step interference at the cost of slower
    // prompt completion.
    let mut cfg = TraceConfig::long_context(96, 42, 8).with_mean_interarrival(80);
    cfg.class_weights = [1, 3, 6];
    let long_trace = cfg.generate()?;
    println!(
        "Chunked prefill: {} long-prompt requests of {} on 8 SmartSSDs (max batch 8)\n",
        long_trace.len(),
        presets::opt_30b().name(),
    );
    let mut t = Table::new(vec![
        "prefill mode",
        "decode-gap p95",
        "decode-gap p99",
        "decode-gap max",
        "TTFT p95",
        "interference",
        "chunks",
    ]);
    for (name, mode) in [
        ("off (free, on the side)", ChunkMode::Off),
        ("lump (inline, whole prompt)", ChunkMode::Lump),
        ("chunked (256 @ 2048 budget)", ChunkMode::chunked()),
    ] {
        let sys = HilosSystem::new(
            &SystemSpec::a100_smartssd(8),
            &presets::opt_30b(),
            &HilosConfig::new(8),
        )?
        .with_sim_layers(1);
        let mut eng = ServeEngine::new(sys, ServeConfig::new(8).with_chunk_mode(mode))?;
        let r = eng.run_trace(&long_trace)?;
        let s = r.step_itl_stats();
        t.row(vec![
            name.into(),
            fmt_seconds(s.p95),
            fmt_seconds(s.p99),
            fmt_seconds(s.max),
            fmt_seconds(r.ttft_stats().p95),
            fmt_seconds(r.prefill.interference_seconds),
            r.prefill.chunks.to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "The legacy mode pretends prompt ingestion is free; inline lump prefill charges\n\
         it to a single step and the decode-gap tail explodes; token-budgeted chunking\n\
         does the same total prefill work but bounds how much any one step absorbs.\n"
    );

    // -- Prefix KV-cache reuse: skip redundant prefill ------------------
    // Every fresh conversation opens with the same 8192-token document
    // prefix and 60% of arrivals continue a cached session, so most of
    // each prompt's prefill is work someone already did. With the cache
    // on, admission probes the prefix index, skips the cached chunks, and
    // pays the HBM->DRAM->SSD residency ladder's recall I/O instead.
    let shared = SharedPrefixConfig {
        system_prompt_tokens: 8192,
        follow_up_fraction: 0.6,
        follow_up_tokens: 256,
        max_turns: 8,
    };
    let prefix_trace = TraceConfig::long_context(192, 42, 8)
        .with_mean_interarrival(100)
        .with_shared_prefix(shared)
        .generate()?;
    println!(
        "Prefix KV-cache reuse: {} requests sharing an 8192-token document prefix\n",
        prefix_trace.len(),
    );
    let mut t = Table::new(vec![
        "prefix cache",
        "TTFT p50",
        "TTFT p95",
        "hit rate",
        "saved prefill tokens",
        "recall I/O",
    ]);
    for (name, cache) in
        [("off", None), ("on (HBM\u{2192}DRAM\u{2192}SSD)", Some(PrefixCacheConfig::default()))]
    {
        let sys = HilosSystem::new(
            &SystemSpec::a100_smartssd(8),
            &presets::opt_30b(),
            &HilosConfig::new(8),
        )?
        .with_sim_layers(1);
        let mut cfg = ServeConfig::new(16);
        if let Some(pc) = cache {
            cfg = cfg.with_prefix_cache(pc);
        }
        let r = ServeEngine::new(sys, cfg)?.run_trace(&prefix_trace)?;
        let ttft = r.ttft_stats();
        t.row(vec![
            name.into(),
            fmt_seconds(ttft.p50),
            fmt_seconds(ttft.p95),
            format!("{:.1}%", r.prefix.hit_rate() * 100.0),
            r.prefix.saved_prefill_tokens.to_string(),
            fmt_seconds(r.prefix.recall_seconds),
        ]);
    }
    println!("{t}");
    println!(
        "Hits skip their prefix's prefill chunks entirely; the recall seconds are the\n\
         ladder's price for the cached KV that had been demoted out of HBM.\n"
    );

    // -- Deterministic lifecycle tracing --------------------------------
    // The same shared-prefix scenario re-run with the event ring on:
    // every arrival, admission, prefill chunk, prefix hit, recall, token
    // emission and completion lands in a deterministic event stream that
    // attributes each request's latency phase by phase.
    let sys =
        HilosSystem::new(&SystemSpec::a100_smartssd(8), &presets::opt_30b(), &HilosConfig::new(8))?
            .with_sim_layers(1);
    let cfg = ServeConfig::new(16)
        .with_chunk_mode(ChunkMode::chunked())
        .with_prefix_cache(PrefixCacheConfig::default())
        .with_tracing(1 << 20);
    let traced = ServeEngine::new(sys, cfg)?.run_trace(&prefix_trace)?;
    println!(
        "Lifecycle tracing: {} events retained ({} dropped), stream FNV 0x{:016x}",
        traced.events.len(),
        traced.events_dropped,
        events_fnv(&traced.events),
    );
    let attr = LatencyAttribution::analyze(&[&traced.events]);
    let mut t = Table::new(vec![
        "request",
        "TTFT",
        "queue",
        "recall",
        "prefill",
        "interference",
        "preempt-lost",
        "decode",
        "e2e",
    ]);
    for row in attr.worst_ttft(3) {
        t.row(vec![
            row.id.to_string(),
            fmt_seconds(row.ttft_s),
            fmt_seconds(row.queue_s),
            fmt_seconds(row.recall_s),
            fmt_seconds(row.prefill_s),
            fmt_seconds(row.interference_s),
            fmt_seconds(row.preemption_lost_s),
            fmt_seconds(row.decode_s),
            fmt_seconds(row.e2e_s),
        ]);
    }
    println!("Worst-TTFT requests, additively decomposed (components sum to e2e):\n{t}");
    if let Some(path) = trace_out {
        let doc = perfetto_json(&[&traced.events]);
        std::fs::write(&path, &doc)?;
        println!(
            "Wrote Chrome trace to {} ({} bytes) — open it at https://ui.perfetto.dev",
            path.display(),
            doc.len(),
        );
    }
    Ok(())
}
