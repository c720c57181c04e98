//! # hilos-bench — the reproduction harness
//!
//! One experiment module per table/figure of the paper's evaluation. The
//! `repro` binary dispatches to them; each returns its rendered table so
//! integration tests can assert on the numbers; `tests/paper_claims.rs`
//! checks the paper's headline claims against them, each within a stated
//! band.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use hilos_baselines::{BaselineError, DeepSpeedUvm, FlexGenSystem, KvLocation};
use hilos_core::{CoreError, HilosConfig, HilosSystem, RunReport};
use hilos_llm::ModelConfig;
use hilos_platform::SystemSpec;

/// Layers materialized per simulated step throughout the harness (the
/// makespan is scaled to full model depth; 4 keeps sweeps fast while past
/// the pipeline warm-up).
pub const SIM_LAYERS: u32 = 4;

/// Output length used when sampling decode steps in sweeps.
pub const SAMPLE_OUTPUT: u64 = 8;

/// Runs full HILOS with `n` devices.
///
/// # Errors
///
/// Propagates capacity/validation errors.
pub fn run_hilos(
    n: usize,
    model: &ModelConfig,
    batch: u32,
    ctx: u64,
) -> Result<RunReport, CoreError> {
    run_hilos_config(&SystemSpec::a100_smartssd(n), model, &HilosConfig::new(n), batch, ctx)
}

/// Runs HILOS with an explicit spec and configuration.
///
/// # Errors
///
/// Propagates capacity/validation errors.
pub fn run_hilos_config(
    spec: &SystemSpec,
    model: &ModelConfig,
    config: &HilosConfig,
    batch: u32,
    ctx: u64,
) -> Result<RunReport, CoreError> {
    HilosSystem::new(spec, model, config)?.with_sim_layers(SIM_LAYERS).run_decode(
        batch,
        ctx,
        SAMPLE_OUTPUT,
    )
}

/// Runs FLEX(SSD): four PM9A3 drives on dedicated root ports.
///
/// # Errors
///
/// Propagates capacity errors.
pub fn run_flex_ssd(model: &ModelConfig, batch: u32, ctx: u64) -> Result<RunReport, BaselineError> {
    FlexGenSystem::new(&SystemSpec::a100_pm9a3(4), model, KvLocation::SsdArray)?
        .with_sim_layers(SIM_LAYERS)
        .run_decode(batch, ctx, SAMPLE_OUTPUT)
}

/// Runs FLEX(16 PCIe 3.0 SSDs): the SmartSSD chassis with FPGAs disabled.
///
/// # Errors
///
/// Propagates capacity errors.
pub fn run_flex_jbof(
    model: &ModelConfig,
    batch: u32,
    ctx: u64,
) -> Result<RunReport, BaselineError> {
    FlexGenSystem::new(&SystemSpec::a100_chassis_no_fpga(16), model, KvLocation::SsdArray)?
        .with_sim_layers(SIM_LAYERS)
        .run_decode(batch, ctx, SAMPLE_OUTPUT)
}

/// Runs FLEX(DRAM) at the largest feasible batch ≤ `batch`, as the paper
/// does when host memory binds. Returns the used batch with the report.
///
/// # Errors
///
/// Returns the OOM error if even batch 1 does not fit.
pub fn run_flex_dram_autobatch(
    model: &ModelConfig,
    batch: u32,
    ctx: u64,
) -> Result<(u32, RunReport), BaselineError> {
    let sys = FlexGenSystem::new(&SystemSpec::a100_pm9a3(4), model, KvLocation::HostDram)?
        .with_sim_layers(SIM_LAYERS);
    match sys.max_batch(ctx, SAMPLE_OUTPUT, batch) {
        Some(bs) => Ok((bs, sys.run_decode(bs, ctx, SAMPLE_OUTPUT)?)),
        None => Err(BaselineError::HostOom {
            needed: model.kv_bytes_per_token() * ctx,
            available: SystemSpec::a100_pm9a3(4).host.dram_bytes,
        }),
    }
}

/// Runs DS+UVM(DRAM) at the largest feasible batch ≤ `batch`.
///
/// # Errors
///
/// Returns the OOM error if even batch 1 does not fit.
pub fn run_deepspeed_autobatch(
    model: &ModelConfig,
    batch: u32,
    ctx: u64,
) -> Result<(u32, RunReport), BaselineError> {
    let spec = SystemSpec::a100_pm9a3(4);
    let ds = DeepSpeedUvm::new(&spec, model)?.with_sim_layers(SIM_LAYERS);
    let mut bs = batch;
    loop {
        match ds.check_capacity(bs, ctx, SAMPLE_OUTPUT) {
            Ok(()) => return Ok((bs, ds.run_decode(bs, ctx, SAMPLE_OUTPUT)?)),
            Err(e) if bs == 1 => return Err(e),
            Err(_) => bs /= 2,
        }
    }
}

/// Formats a tokens/s value or an OOM marker.
pub fn tps_cell<E: std::fmt::Display>(r: &Result<f64, E>) -> String {
    match r {
        Ok(v) => format!("{v:.4}"),
        Err(_) => "CPU OOM".to_string(),
    }
}

/// Formats a normalized value or an OOM marker.
pub fn norm_cell(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.2}x"),
        None => "OOM".to_string(),
    }
}
