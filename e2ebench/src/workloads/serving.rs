//! The two trace workloads, open loop in simulated time: `serve-prefix`
//! (one deployment, shared-prefix long-context traffic) and
//! `fleet-elastic` (32 autoscaled slots, flash-crowd traffic).

use super::{Modeled, Outcome, Workload};
use crate::probes::Probes;
use crate::spans::Spans;
use crate::stats::{ratio, Fnv};
use hilos_core::{
    outcome_lifecycle_fnv, ChunkMode, CostNormalizedPressure, ElasticClusterEngine, ElasticConfig,
    Fifo, HilosConfig, HilosSystem, HybridHistogramKeepAlive, PrefixCacheConfig, PriorityPreempt,
    RequestOutcome, RoutingPolicy, SchedulingPolicy, ServeConfig, ServeEngine, TraceReport,
};
use hilos_llm::{presets, Request, SharedPrefixConfig, TraceConfig};
use hilos_metrics::{hourly_cost_usd, provisioned_power_w, LatencyStats, PrefillBreakdown};
use hilos_platform::SystemSpec;
use std::collections::BTreeMap;

/// Simulated layers per serving step, as every serving example uses.
const SIM_LAYERS: u32 = 1;

/// The open-loop backlog check: TTFT p99 of the last quarter of arrivals
/// may be at most this many times the first quarter's. A trace arriving
/// faster than the deployment serves it fails by orders of magnitude.
const BACKLOG_FACTOR: f64 = 4.0;

fn hilos(ssds: usize) -> Result<HilosSystem, String> {
    HilosSystem::new(&SystemSpec::a100_smartssd(ssds), &presets::opt_30b(), &HilosConfig::new(ssds))
        .map(|s| s.with_sim_layers(SIM_LAYERS))
        .map_err(|e| format!("building a {ssds}-SmartSSD system: {e}"))
}

/// The serving config with the benchmark's tracing choice applied. The
/// ring is unbounded, so the traced run never drops an event.
fn traced(config: ServeConfig, probes: Option<&Probes>) -> ServeConfig {
    match probes {
        Some(_) => config.with_tracing(usize::MAX),
        None => config,
    }
}

fn scheduling(
    policy: Box<dyn SchedulingPolicy>,
    probes: Option<&Probes>,
) -> Box<dyn SchedulingPolicy> {
    match probes {
        Some(p) => p.scheduling(policy),
        None => policy,
    }
}

fn trace_fingerprint(trace: &[Request]) -> u64 {
    let mut fnv = Fnv::default();
    for r in trace {
        for w in [r.arrival_step, r.prompt_len, r.output_budget, r.prefix_key, r.prefix_tokens] {
            fnv.word(w);
        }
    }
    fnv.finish()
}

fn input_layers(trace: &[Request]) -> [(&'static str, f64); 4] {
    let prompt: u64 = trace.iter().map(|r| r.prompt_len).sum();
    let shared: u64 = trace.iter().map(|r| r.prefix_tokens).sum();
    [
        ("input.items", trace.len() as f64),
        ("input.skipped", 0.0),
        ("input.mean_prompt_tokens", ratio(prompt as f64, trace.len() as f64)),
        ("input.shared_prefix_frac", ratio(shared as f64, prompt as f64)),
    ]
}

/// Checks one trace run's outputs and derives its modeled and simulated
/// per-layer metrics. `cost_usd` is what the simulated run billed;
/// `memo_entries` the distinct step-graph operating points simulated.
fn summarize(
    trace: &[Request],
    reports: Vec<TraceReport>,
    cost_usd: f64,
    memo_entries: usize,
) -> Result<Outcome, String> {
    let outcomes: Vec<RequestOutcome> =
        reports.iter().flat_map(|r| r.outcomes.iter().copied()).collect();
    let rejected: usize = reports.iter().map(|r| r.rejected.len()).sum();
    let shed: usize = reports.iter().map(|r| r.shed.len()).sum();
    if outcomes.len() + rejected + shed != trace.len() {
        return Err(format!(
            "conservation: {} completed + {rejected} rejected + {shed} shed != {} arrivals",
            outcomes.len(),
            trace.len()
        ));
    }
    let generated: u64 = reports.iter().map(|r| r.generated_tokens).sum();
    let emitted: u64 = outcomes.iter().map(|o| o.output_len).sum();
    if generated != emitted {
        return Err(format!("generated tokens {generated} != completed output {emitted}"));
    }
    let ttft: LatencyStats = outcomes.iter().map(RequestOutcome::ttft).collect();
    let quarter = |lo: usize, hi: usize| -> LatencyStats {
        outcomes
            .iter()
            .filter(|o| (lo as u64..hi as u64).contains(&o.id))
            .map(RequestOutcome::ttft)
            .collect()
    };
    let n = trace.len();
    let (first, last) = (quarter(0, n / 4), quarter(n - n / 4, n));
    if last.p99 > BACKLOG_FACTOR * first.p99 {
        return Err(format!(
            "growing backlog: TTFT p99 {:.3}s over the last quarter of arrivals vs {:.3}s \
             over the first (limit {BACKLOG_FACTOR}x)",
            last.p99, first.p99
        ));
    }
    let elapsed_s = reports.iter().map(|r| r.elapsed_s).fold(0.0, f64::max);
    // Each request's mean gap between its tokens. (The per-step gaps of
    // `step_latency_s` take a handful of memoized values, so their p99 is
    // one operating point that reads the same for every seed.)
    let itl: LatencyStats = outcomes.iter().map(RequestOutcome::itl).collect();
    let modeled = Modeled {
        tok_s: generated as f64 / elapsed_s,
        ttft_p50_s: ttft.p50,
        ttft_p99_s: ttft.p99,
        itl_p99_s: itl.p99,
        usd_per_mtok: cost_usd / generated as f64 * 1e6,
    };

    let mut fnv = Fnv::default();
    fnv.word(outcome_lifecycle_fnv(&outcomes));
    for r in &reports {
        r.rejected.iter().for_each(|&id| fnv.word(id));
        r.shed.iter().for_each(|s| fnv.word(s.id));
    }
    let steps: u64 = reports.iter().map(|r| r.steps).sum();
    let alpha_steps: f64 = reports.iter().map(|r| r.mean_alpha * r.steps as f64).sum();
    let host_bytes: f64 = reports.iter().map(|r| r.host_pcie_bytes).sum();
    let internal_bytes: f64 = reports.iter().map(|r| r.internal_read_bytes).sum();
    let prefill = reports.iter().fold(PrefillBreakdown::default(), |acc, r| acc.merged(&r.prefill));
    let prefix = reports
        .iter()
        .fold(hilos_metrics::PrefixCacheStats::default(), |acc, r| acc.merged(&r.prefix));
    let wasted: u64 = reports.iter().map(|r| r.wasted_prefill_tokens).sum();
    let executed: u64 = outcomes.iter().map(|o| o.prefill_tokens).sum();
    let tok = generated as f64;
    let mut layers = vec![
        ("runner.mean_alpha", ratio(alpha_steps, steps as f64)),
        ("interconnect.host_pcie_bytes_per_tok", host_bytes / tok),
        ("interconnect.internal_read_bytes_per_tok", internal_bytes / tok),
        ("serve.steps", steps as f64),
        ("serve.memo_entries", memo_entries as f64),
        (
            "serve.memo_hit_ratio",
            ratio(steps.saturating_sub(memo_entries as u64) as f64, steps as f64),
        ),
        ("serve.mean_batch", ratio(tok, steps as f64)),
        ("serve.peak_batch", reports.iter().map(|r| r.peak_batch).max().unwrap_or(0) as f64),
        ("serve.preemptions", reports.iter().map(|r| r.preemptions).sum::<u64>() as f64),
        ("serve.wasted_prefill_ratio", ratio(wasted as f64, executed as f64)),
        ("serve.prefill_chunks", prefill.chunks as f64),
        ("serve.interference_s", prefill.interference_seconds),
        ("serve.stall_s", prefill.stall_seconds),
        (
            "serve.slo_hit_ratio",
            ratio(outcomes.iter().filter(|o| o.met_slo()).count() as f64, n as f64),
        ),
        ("storage.prefix_lookups", prefix.lookups as f64),
        ("storage.prefix_hit_ratio", prefix.hit_rate()),
        ("storage.saved_prefill_tokens", prefix.saved_prefill_tokens as f64),
        ("storage.demoted_bytes", prefix.demoted_bytes() as f64),
        ("storage.recalled_bytes", prefix.recalled_bytes() as f64),
        ("storage.recall_s", prefix.recall_seconds),
    ];
    layers.extend(input_layers(trace));
    let events_dropped = reports.iter().map(|r| r.events_dropped).sum();
    let rings = reports.into_iter().map(|r| r.events).collect();
    Ok(Outcome {
        attempted: n as u64,
        failed: (rejected + shed) as u64,
        modeled,
        fingerprint: fnv.finish(),
        layers,
        rings,
        events_dropped,
        run_trace_s: 0.0,
        steps,
    })
}

/// `serve-prefix`: one 8-SmartSSD OPT-30B deployment under
/// shared-prefix long-context traffic, prefix cache and chunked prefill
/// on, priority preemption.
#[derive(Debug, Clone, Copy)]
pub struct ServePrefix {
    /// Requests in the trace.
    pub(crate) requests: usize,
}

impl ServePrefix {
    /// Default trace length.
    pub(crate) const DEFAULT_ITEMS: usize = 16_000;
    /// Mean arrival gap, serving steps: tight enough that preemption and
    /// ladder eviction fire, loose enough that the backlog stays bounded
    /// (at 24 a few seeds in a hundred grow one).
    const ARRIVAL_GAP: u64 = 26;
    /// Prompt stretch over the Azure mix.
    const PROMPT_SCALE: u64 = 8;
    /// Deployment SmartSSDs.
    const SSDS: usize = 8;
    /// Admission cap.
    const MAX_BATCH: u32 = 16;

    /// The shared-prefix shape: an 8192-token document prefix opening
    /// every conversation, 60% follow-up turns.
    fn shared_prefix() -> SharedPrefixConfig {
        SharedPrefixConfig {
            system_prompt_tokens: 8192,
            follow_up_fraction: 0.6,
            follow_up_tokens: 256,
            max_turns: 8,
        }
    }
}

impl Workload for ServePrefix {
    type Inputs = Vec<Request>;
    type Built = ServeEngine;

    fn generate(&self, seed: u64, spans: &mut Spans) -> Result<Vec<Request>, String> {
        spans
            .time("llm.trace_gen", || {
                TraceConfig::long_context(self.requests, seed, Self::PROMPT_SCALE)
                    .with_mean_interarrival(Self::ARRIVAL_GAP)
                    .with_shared_prefix(Self::shared_prefix())
                    .generate()
            })
            .map_err(|e| format!("trace generation: {e}"))
    }

    fn build(
        &self,
        _trace: &Vec<Request>,
        probes: Option<&Probes>,
        spans: &mut Spans,
    ) -> Result<ServeEngine, String> {
        spans.time("core.build", || {
            let config = ServeConfig::new(Self::MAX_BATCH)
                .with_chunk_mode(ChunkMode::chunked())
                .with_prefix_cache(PrefixCacheConfig::default());
            ServeEngine::with_policy(
                hilos(Self::SSDS)?,
                traced(config, probes),
                scheduling(Box::new(PriorityPreempt::new()), probes),
            )
            .map_err(|e| format!("building the serving engine: {e}"))
        })
    }

    fn run(
        &self,
        trace: &Vec<Request>,
        mut engine: ServeEngine,
        spans: &mut Spans,
    ) -> Result<Outcome, String> {
        let idx = spans.begin("serve.run_trace");
        let report = engine.run_trace(trace);
        let run_trace_s = spans.end(idx);
        let report = report.map_err(|e| format!("run_trace: {e}"))?;
        let spec = engine.system().spec();
        let cost_usd = hourly_cost_usd(spec.total_price_usd(), provisioned_power_w(spec))
            * report.elapsed_s
            / 3600.0;
        let memo_entries = report.step_cache_entries;
        let mut out = spans
            .time("metrics.summarize", || summarize(trace, vec![report], cost_usd, memo_entries))?;
        out.run_trace_s = run_trace_s;
        Ok(out)
    }

    fn input_fingerprint(&self, trace: &Vec<Request>) -> u64 {
        trace_fingerprint(trace)
    }
}

/// `fleet-elastic`: 32 heterogeneous OPT-30B slots (8/6/4/4 SmartSSDs
/// repeating), one Active at the start, cost-normalized routing and the
/// hybrid keep-alive autoscaler, under flash-crowd Azure-mix traffic.
#[derive(Debug, Clone, Copy)]
pub struct FleetElastic {
    /// Requests in the trace.
    pub(crate) requests: usize,
}

impl FleetElastic {
    /// Default trace length.
    pub(crate) const DEFAULT_ITEMS: usize = 30_000;
    /// Deployment slots.
    const SLOTS: usize = 32;
    /// SmartSSDs per slot, cycled over the slots.
    const SLOT_SSDS: [usize; 4] = [8, 6, 4, 4];
    /// Per-slot admission cap.
    const MAX_BATCH: u32 = 8;
    /// Requests per flash crowd.
    const BURST_REQUESTS: usize = 250;
    /// Idle steps between flash crowds.
    const CALM_GAP: u64 = 2400;
    /// The keep-alive autoscaler's burst threshold, steps.
    const BURST_THRESHOLD: u64 = 64;

    fn bursts(&self) -> u32 {
        self.requests.div_ceil(Self::BURST_REQUESTS).max(1) as u32
    }
}

impl Workload for FleetElastic {
    type Inputs = Vec<Request>;
    type Built = ElasticClusterEngine;

    fn generate(&self, seed: u64, spans: &mut Spans) -> Result<Vec<Request>, String> {
        spans
            .time("llm.trace_gen", || {
                TraceConfig::flash_crowd_mix(self.requests, seed, self.bursts(), Self::CALM_GAP)
                    .generate()
            })
            .map_err(|e| format!("trace generation: {e}"))
    }

    fn build(
        &self,
        _trace: &Vec<Request>,
        probes: Option<&Probes>,
        spans: &mut Spans,
    ) -> Result<ElasticClusterEngine, String> {
        spans.time("core.build", || {
            let slots = (0..Self::SLOTS)
                .map(|i| {
                    ServeEngine::with_policy(
                        hilos(Self::SLOT_SSDS[i % Self::SLOT_SSDS.len()])?,
                        traced(ServeConfig::new(Self::MAX_BATCH), probes),
                        scheduling(Box::new(Fifo), probes),
                    )
                    .map_err(|e| format!("building slot {i}: {e}"))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let routing: Box<dyn RoutingPolicy> = Box::new(CostNormalizedPressure);
            let autoscale = Box::new(HybridHistogramKeepAlive::new(Self::BURST_THRESHOLD));
            let (routing, autoscale) = match probes {
                Some(p) => (p.routing(routing), p.autoscale(autoscale)),
                None => (routing, autoscale as _),
            };
            Ok(ElasticClusterEngine::new(slots, routing, autoscale, ElasticConfig::new(1)))
        })
    }

    fn run(
        &self,
        trace: &Vec<Request>,
        mut fleet: ElasticClusterEngine,
        spans: &mut Spans,
    ) -> Result<Outcome, String> {
        let idx = spans.begin("cluster.run_trace");
        let report = fleet.run_trace(trace);
        let run_trace_s = spans.end(idx);
        let report = report.map_err(|e| format!("run_trace: {e}"))?;
        // Slots with equal systems share one warm-start memo table, so the
        // distinct operating points simulated are the largest table of
        // each group, summed over groups.
        let mut groups: BTreeMap<String, usize> = BTreeMap::new();
        for (engine, r) in fleet.deployments().iter().zip(&report.cluster.deployments) {
            let entry = groups.entry(format!("{:?}", engine.system())).or_default();
            *entry = (*entry).max(r.step_cache_entries);
        }
        let memo_entries = groups.values().sum();
        let bill = report.fleet_bill();
        let elastic_layers = [
            ("cluster.dispatch_imbalance", report.cluster.dispatch_imbalance()),
            ("cluster.redispatches", report.cluster.redispatches as f64),
            ("cluster.misrouted", report.cluster.misrouted as f64),
            ("elastic.scale_ups", report.scale_ups as f64),
            ("elastic.drains", report.drains as f64),
            ("elastic.migrated_requests", report.drained_requests as f64),
            ("elastic.peak_active", report.peak_active as f64),
            ("elastic.billed_s", bill.billed_seconds()),
            ("elastic.cold_start_s", report.cold_start_s_total),
        ];
        let mut fnv = Fnv::default();
        for e in &report.events {
            fnv.word(e.step);
            fnv.word(u64::from(e.deployment));
            fnv.word(e.to as u64);
        }
        for b in &bill.slots {
            fnv.float(b.billed_seconds);
        }
        let deployments = report.cluster.deployments;
        let mut out = spans.time("metrics.summarize", || {
            summarize(trace, deployments, bill.cost_usd(), memo_entries)
        })?;
        fnv.word(out.fingerprint);
        out.fingerprint = fnv.finish();
        out.layers.extend(elastic_layers);
        out.run_trace_s = run_trace_s;
        Ok(out)
    }

    fn input_fingerprint(&self, trace: &Vec<Request>) -> u64 {
        trace_fingerprint(trace)
    }
}
