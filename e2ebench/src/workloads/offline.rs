//! `offline-longctx`: the paper's own regime — uniform offline batch jobs
//! run as `run_prefill` then `run_decode`, a closed batch.

use super::{Modeled, Outcome, Workload};
use crate::probes::Probes;
use crate::spans::Spans;
use crate::stats::{weighted_percentile, Fnv, SplitMix};
use hilos_core::{HilosConfig, HilosSystem};
use hilos_llm::{presets, BatchSpec, ModelConfig};
use hilos_metrics::{hourly_cost_usd, provisioned_power_w};
use hilos_platform::SystemSpec;

/// Models sampled: three dense MHA sizes, a GQA model and an MoE model.
const MODELS: [fn() -> ModelConfig; 5] = [
    presets::opt_30b,
    presets::opt_66b,
    presets::opt_175b,
    presets::qwen25_32b,
    presets::mixtral_8x7b,
];
/// SmartSSD counts sampled.
const SSDS: [usize; 3] = [4, 8, 16];
/// Batch range, inclusive.
const BATCH: (u32, u32) = (8, 64);
/// Context range in tokens, inclusive, drawn on a 1K grid.
const CONTEXT_K: (u64, u64) = (16, 128);
/// Generated tokens per sequence: the paper's default (§6.1).
const OUTPUT: u64 = 64;

/// One sampled job.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    model: usize,
    ssds: usize,
    spec: BatchSpec,
}

/// The systems that passed `check_capacity`, and how many were skipped.
#[derive(Debug)]
pub struct Built {
    kept: Vec<(HilosSystem, BatchSpec)>,
    skipped: usize,
}

/// The offline workload: every (model, SSD count) cell holds the same
/// number of jobs, laid out as a Latin hypercube over batch × context.
#[derive(Debug, Clone, Copy)]
pub struct OfflineLongctx {
    /// Jobs per (model, SSD count) cell, and strata per axis.
    pub(crate) jobs_per_cell: usize,
}

impl OfflineLongctx {
    /// Default size: 18 jobs in each of the 15 cells.
    pub(crate) const DEFAULT_ITEMS: usize = 270;

    /// A workload of about `items` jobs (rounded up to whole cells).
    pub(crate) fn new(items: usize) -> Self {
        let cells = MODELS.len() * SSDS.len();
        OfflineLongctx { jobs_per_cell: items.div_ceil(cells).max(1) }
    }
}

/// A seeded point inside stratum `k` of `n` over `[lo, hi]`.
fn stratified(rng: &mut SplitMix, k: usize, n: usize, lo: u64, hi: u64) -> u64 {
    let u = (k as f64 + rng.unit()) / n as f64;
    lo + ((hi - lo + 1) as f64 * u) as u64
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl Workload for OfflineLongctx {
    type Inputs = Vec<Job>;
    type Built = Built;

    fn generate(&self, seed: u64, spans: &mut Spans) -> Result<Vec<Job>, String> {
        let n = self.jobs_per_cell;
        Ok(spans.time("llm.trace_gen", || {
            // Job `k` of a cell takes context stratum `k` and batch stratum
            // `(k·m + cell) mod n`: a fixed Latin-hypercube pairing, with
            // the seed placing each job inside its strata. The heavy tail
            // (large batch at long context on few devices) is then sampled
            // alike for every seed, so the aggregates vary little between
            // seeds while every seed still draws different jobs.
            let m = (2..).find(|&m| gcd(m, n) == 1).unwrap_or(1);
            let mut rng = SplitMix::new(seed);
            let mut jobs = Vec::with_capacity(MODELS.len() * SSDS.len() * n);
            for model in 0..MODELS.len() {
                for (s, &ssds) in SSDS.iter().enumerate() {
                    let cell = model * SSDS.len() + s;
                    for k in 0..n {
                        let (lo, hi) = (u64::from(BATCH.0), u64::from(BATCH.1));
                        let batch = stratified(&mut rng, (k * m + cell) % n, n, lo, hi) as u32;
                        let ctx_k = stratified(&mut rng, k, n, CONTEXT_K.0, CONTEXT_K.1);
                        let spec = BatchSpec::new(batch, ctx_k << 10, OUTPUT);
                        jobs.push(Job { model, ssds, spec });
                    }
                }
            }
            jobs
        }))
    }

    fn build(
        &self,
        jobs: &Vec<Job>,
        _probes: Option<&Probes>,
        spans: &mut Spans,
    ) -> Result<Built, String> {
        spans.time("core.build", || {
            let models: Vec<ModelConfig> = MODELS.iter().map(|m| m()).collect();
            let mut kept = Vec::with_capacity(jobs.len());
            let mut skipped = 0;
            for job in jobs {
                let system = HilosSystem::new(
                    &SystemSpec::a100_smartssd(job.ssds),
                    &models[job.model],
                    &HilosConfig::new(job.ssds),
                )
                .map_err(|e| format!("building {job:?}: {e}"))?
                .with_sim_layers(hilos_bench::SIM_LAYERS);
                // Jobs whose KV cache cannot be placed are not offline
                // jobs this deployment could take; skip them up front.
                if system.check_capacity(&job.spec).is_ok() {
                    kept.push((system, job.spec));
                } else {
                    skipped += 1;
                }
            }
            Ok(Built { kept, skipped })
        })
    }

    fn run(&self, _jobs: &Vec<Job>, built: Built, spans: &mut Spans) -> Result<Outcome, String> {
        let mut fnv = Fnv::default();
        let (mut tokens, mut sim_s, mut usd) = (0u64, 0.0f64, 0.0f64);
        let mut ttft = Vec::with_capacity(built.kept.len());
        let mut itl = Vec::with_capacity(built.kept.len());
        let (mut alpha_w, mut seqs, mut prompt_tokens) = (0.0, 0u64, 0u64);
        let (mut host_bytes, mut internal_bytes, mut nand_bytes) = (0.0, 0.0, 0.0);
        for (system, spec) in &built.kept {
            let prefill = spans
                .time("runner.prefill", || system.run_prefill(spec.batch, spec.context_len))
                .map_err(|e| format!("run_prefill {spec}: {e}"))?;
            let decode = spans
                .time("runner.decode", || {
                    system.run_decode(spec.batch, spec.context_len, spec.output_len)
                })
                .map_err(|e| format!("run_decode {spec}: {e}"))?;
            let job_tokens = spec.total_generated_tokens();
            if decode.batch != spec.batch || decode.output_len != spec.output_len {
                return Err(format!("run_decode {spec} reported a different job shape"));
            }
            let job_s = prefill.seconds + decode.decode_seconds;
            tokens += job_tokens;
            sim_s += job_s;
            let sys_spec = system.spec();
            usd += hourly_cost_usd(sys_spec.total_price_usd(), provisioned_power_w(sys_spec))
                * job_s
                / 3600.0;
            let batch = u64::from(spec.batch);
            ttft.push((prefill.seconds + decode.avg_step_seconds, batch));
            itl.push((decode.avg_step_seconds, batch));
            alpha_w += decode.alpha * batch as f64;
            seqs += batch;
            prompt_tokens += batch * spec.context_len;
            let steps = spec.output_len as f64;
            host_bytes += decode.host_pcie_bytes_per_step * steps;
            internal_bytes += decode.internal_read_bytes_per_step * steps;
            nand_bytes += decode.nand_write_bytes_per_step * steps;
            for x in [
                prefill.seconds,
                prefill.cache_bytes_written,
                decode.avg_step_seconds,
                decode.alpha,
                decode.host_pcie_bytes_per_step,
                decode.internal_read_bytes_per_step,
                decode.nand_write_bytes_per_step,
            ] {
                fnv.float(x);
            }
        }
        if built.kept.is_empty() {
            return Err("every sampled job was skipped by check_capacity".into());
        }
        let tok = tokens as f64;
        let modeled = Modeled {
            tok_s: tok / sim_s,
            ttft_p50_s: weighted_percentile(&ttft, 0.50),
            ttft_p99_s: weighted_percentile(&ttft, 0.99),
            itl_p99_s: weighted_percentile(&itl, 0.99),
            usd_per_mtok: usd / tok * 1e6,
        };
        Ok(Outcome {
            attempted: built.kept.len() as u64,
            failed: 0,
            modeled,
            fingerprint: fnv.finish(),
            layers: vec![
                ("runner.mean_alpha", alpha_w / seqs as f64),
                ("interconnect.host_pcie_bytes_per_tok", host_bytes / tok),
                ("interconnect.internal_read_bytes_per_tok", internal_bytes / tok),
                ("storage.nand_write_bytes_per_tok", nand_bytes / tok),
                ("input.items", built.kept.len() as f64),
                ("input.skipped", built.skipped as f64),
                ("input.mean_prompt_tokens", prompt_tokens as f64 / seqs as f64),
                ("input.shared_prefix_frac", 0.0),
            ],
            rings: Vec::new(),
            events_dropped: 0,
            run_trace_s: 0.0,
            steps: 0,
        })
    }

    fn input_fingerprint(&self, jobs: &Vec<Job>) -> u64 {
        let mut fnv = Fnv::default();
        for j in jobs {
            for w in [j.model as u64, j.ssds as u64, u64::from(j.spec.batch), j.spec.context_len] {
                fnv.word(w);
            }
        }
        fnv.finish()
    }
}
