//! The inference controller: runs prefill + decode jobs on a built system
//! and aggregates reports.

use crate::config::HilosConfig;
use crate::scheduler::{weight_source, WeightSource};
use crate::step::{AlphaSelector, DecodeStepExecutor};
use crate::writeback::{
    decision_at, decode_nand_write_bytes, middle_of, peak_buffer_bytes, SpillDecision,
};
use hilos_accel::{AccelTimingModel, ResourceModel};
use hilos_llm::{BatchSpec, ModelConfig};
use hilos_platform::{BuiltSystem, SystemError, SystemSpec};
use hilos_sim::SimError;
use hilos_storage::KvShardLedger;
use std::error::Error;
use std::fmt;

/// Errors from HILOS runs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The system spec has no near-storage accelerators.
    NoAccelerators,
    /// Fewer physical devices than the configuration asks for.
    NotEnoughDevices {
        /// Devices requested.
        requested: usize,
        /// Devices available in the spec.
        available: usize,
    },
    /// The model's `d_group` does not fit the FPGA.
    AcceleratorDoesNotFit(String),
    /// KV/X cache plus weights exceed the devices' capacity.
    DeviceCapacityExceeded {
        /// Bytes needed.
        needed: u64,
        /// Bytes available.
        available: u64,
    },
    /// The host-side writeback buffer exceeds host DRAM.
    HostOom {
        /// Bytes needed.
        needed: u64,
        /// Bytes available.
        available: u64,
    },
    /// A simulation error (graph bug).
    Sim(SimError),
    /// A platform build error.
    Platform(String),
    /// A scheduling policy held queued requests forever with nothing in
    /// flight (the serving loop could never make progress).
    SchedulerStalled {
        /// Requests stuck in the admission queue.
        queued: usize,
    },
    /// A [`ServeConfig`](crate::ServeConfig) size or duration that must be
    /// positive is not (see [`ServeConfig::validate`](crate::ServeConfig::validate)).
    InvalidServeConfig {
        /// The offending field.
        field: &'static str,
    },
    /// A job size passed to [`HilosSystem::run_decode`],
    /// [`HilosSystem::run_prefill`] or [`HilosSystem::run_job`] is zero,
    /// or the system simulates zero layers per step.
    InvalidJob {
        /// The zero size: `batch`, `context`, `output_len` or
        /// `sim_layers`.
        field: &'static str,
    },
    /// A trace handed to a serving run is not sorted by arrival step.
    UnsortedTrace {
        /// The first request that arrives before its predecessor.
        index: usize,
    },
    /// A fleet handed to a serving run has no deployment, or starts a
    /// number of Active slots outside `1..=deployments`.
    InvalidFleet {
        /// Deployment slots in the fleet.
        deployments: usize,
        /// Slots the fleet starts Active.
        initial_active: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NoAccelerators => {
                write!(f, "system has no near-storage accelerators (HILOS requires NSP devices)")
            }
            CoreError::NotEnoughDevices { requested, available } => {
                write!(f, "configuration asks for {requested} devices, system has {available}")
            }
            CoreError::AcceleratorDoesNotFit(e) => write!(f, "accelerator does not fit: {e}"),
            CoreError::DeviceCapacityExceeded { needed, available } => {
                write!(f, "device capacity exceeded: need {needed} bytes, have {available}")
            }
            CoreError::HostOom { needed, available } => {
                write!(f, "host memory exhausted: need {needed} bytes, have {available}")
            }
            CoreError::Sim(e) => write!(f, "simulation error: {e}"),
            CoreError::Platform(e) => write!(f, "platform error: {e}"),
            CoreError::SchedulerStalled { queued } => {
                write!(f, "scheduling policy stalled with {queued} queued requests")
            }
            CoreError::InvalidServeConfig { field } => {
                write!(f, "serving configuration field `{field}` must be positive")
            }
            CoreError::InvalidJob { field } => write!(f, "job size `{field}` must be positive"),
            CoreError::UnsortedTrace { index } => {
                write!(f, "trace request {index} arrives before its predecessor")
            }
            CoreError::InvalidFleet { deployments, initial_active } => write!(
                f,
                "a fleet of {deployments} deployments cannot start {initial_active} Active \
                 (it needs 1..={deployments})"
            ),
        }
    }
}

impl Error for CoreError {}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<SystemError> for CoreError {
    fn from(e: SystemError) -> Self {
        CoreError::Platform(e.to_string())
    }
}

/// Result of a decode run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Batch size.
    pub batch: u32,
    /// Output length used for aggregation.
    pub output_len: u64,
    /// Average seconds per decoding step (whole batch).
    pub avg_step_seconds: f64,
    /// Total decode seconds (`avg_step_seconds × output_len`).
    pub decode_seconds: f64,
    /// The α the cache scheduler chose.
    pub alpha: f64,
    /// Per-category task seconds of a representative step (for the
    /// breakdown figures).
    pub category_seconds: Vec<(String, f64)>,
    /// GPU utilization over the sampled steps, `[0, 1]`.
    pub gpu_utilization: f64,
    /// CPU utilization.
    pub cpu_utilization: f64,
    /// Host DRAM-port utilization.
    pub dram_utilization: f64,
    /// Bytes crossing the host interconnect per step (system PCIe
    /// traffic, the Fig. 4 quantity).
    pub host_pcie_bytes_per_step: f64,
    /// Bytes read over the devices' internal paths per step.
    pub internal_read_bytes_per_step: f64,
    /// Physical NAND bytes programmed per step (with write
    /// amplification), feeding the endurance model.
    pub nand_write_bytes_per_step: f64,
}

impl RunReport {
    /// Decoding throughput in tokens/second.
    pub fn tokens_per_second(&self) -> f64 {
        self.batch as f64 / self.avg_step_seconds
    }
}

/// Result of a prefill run.
#[derive(Debug, Clone, Copy)]
pub struct PrefillReport {
    /// Prefill wall-clock seconds.
    pub seconds: f64,
    /// Payload bytes written to the devices (KV + X).
    pub cache_bytes_written: f64,
}

/// Result of a full job (prefill + decode).
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The prefill phase.
    pub prefill: PrefillReport,
    /// The decode phase.
    pub decode: RunReport,
}

impl JobReport {
    /// Total seconds.
    pub fn total_seconds(&self) -> f64 {
        self.prefill.seconds + self.decode.decode_seconds
    }

    /// End-to-end generated-token throughput.
    pub fn tokens_per_second(&self) -> f64 {
        (self.decode.batch as u64 * self.decode.output_len) as f64 / self.total_seconds()
    }
}

/// A configured HILOS deployment — the paper's *Inference Controller*.
///
/// Owns the system spec, model and configuration, and runs simulated
/// prefill/decode jobs. The α selection and the capacity check are
/// closed-form answers from the spec and the straggler list, and build
/// nothing; each `run_prefill`/`run_decode` call builds one fresh
/// simulation world to execute its step graphs on, so runs are
/// independent and deterministic.
#[derive(Debug, Clone)]
pub struct HilosSystem {
    spec: SystemSpec,
    model: ModelConfig,
    config: HilosConfig,
    sim_layers: u32,
    degradations: Vec<(usize, f64)>,
}

impl HilosSystem {
    /// Validates and creates a deployment.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NoAccelerators`] if the spec's storage has no FPGAs,
    /// * [`CoreError::NotEnoughDevices`] if `config.n_devices()` exceeds
    ///   the spec,
    /// * [`CoreError::AcceleratorDoesNotFit`] if the model's `d_group`
    ///   overflows the KU15P (e.g. hypothetical d_group > ~8).
    pub fn new(
        spec: &SystemSpec,
        model: &ModelConfig,
        config: &HilosConfig,
    ) -> Result<Self, CoreError> {
        if !spec.storage.has_accelerators() {
            return Err(CoreError::NoAccelerators);
        }
        if config.n_devices() > spec.storage.device_count() {
            return Err(CoreError::NotEnoughDevices {
                requested: config.n_devices(),
                available: spec.storage.device_count(),
            });
        }
        ResourceModel::smartssd()
            .report(model.d_group())
            .map_err(|e| CoreError::AcceleratorDoesNotFit(e.to_string()))?;
        let mut spec = spec.clone();
        // Trim the storage complex to the configured device count.
        spec.storage = match spec.storage {
            hilos_platform::StorageConfig::SmartSsdChassis { fpga_enabled, .. } => {
                hilos_platform::StorageConfig::SmartSsdChassis {
                    count: config.n_devices(),
                    fpga_enabled,
                }
            }
            hilos_platform::StorageConfig::IspCsd { .. } => {
                hilos_platform::StorageConfig::IspCsd { count: config.n_devices() }
            }
            other => other,
        };
        Ok(HilosSystem {
            spec,
            model: model.clone(),
            config: config.clone(),
            sim_layers: 8,
            degradations: Vec::new(),
        })
    }

    /// The (possibly trimmed) system spec.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// The model.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The configuration.
    pub fn config(&self) -> &HilosConfig {
        &self.config
    }

    /// Overrides how many layers each simulated step materializes
    /// (the makespan is scaled to the model's true depth). Higher is more
    /// faithful, lower is faster. Default 8. Zero layers makes every
    /// run and serving engine fail with [`CoreError::InvalidJob`]
    /// (`sim_layers`).
    pub fn with_sim_layers(mut self, layers: u32) -> Self {
        self.sim_layers = layers;
        self
    }

    /// Injects a straggler: scales device `index`'s storage bandwidth by
    /// `factor` (e.g. 0.5 halves it). HILOS partitions the KV cache
    /// statically, so a slow device gates every step — an availability
    /// sensitivity the `repro straggler` extension quantifies. An `index`
    /// at or beyond the configured device count, or a `factor` that is not
    /// finite and positive, makes every capacity check, α selection, run
    /// and serving engine fail with the same [`CoreError::Platform`].
    pub fn with_degraded_device(mut self, index: usize, factor: f64) -> Self {
        self.degradations.push((index, factor));
        self
    }

    pub(crate) fn sim_layers(&self) -> u32 {
        self.sim_layers
    }

    /// The simulation world the step graphs execute on — built only by
    /// [`DecodeStepExecutor`], never to answer a static question.
    pub(crate) fn build_world(&self) -> Result<BuiltSystem, CoreError> {
        let accel = AccelTimingModel::smartssd(self.model.d_group());
        Ok(BuiltSystem::build_with_degradations(
            &self.spec,
            Some(&accel),
            self.model.head_dim(),
            &self.degradations,
        )?)
    }

    /// [`SystemSpec::kv_ledger`] over this deployment's stragglers.
    pub(crate) fn kv_ledger(&self) -> Result<KvShardLedger, CoreError> {
        Ok(self.spec.kv_ledger(&self.degradations)?)
    }

    /// The §4.2 α selector at this deployment's bandwidth operating point.
    pub(crate) fn alpha_selector(&self) -> AlphaSelector {
        AlphaSelector::new(&self.config, &self.spec)
    }

    /// The α the cache scheduler (§4.2) selects for a given job shape.
    ///
    /// Delegates to [`crate::AlphaSelector`] — the single home of the
    /// §4.2 formula, shared with the serving layer — at this system's
    /// bandwidth operating point, read from the spec.
    ///
    /// # Errors
    ///
    /// [`CoreError::Platform`] if a degraded device is out of range.
    pub fn select_alpha(&self, batch: u32, context: u64) -> Result<f64, CoreError> {
        self.spec.device_specs(&self.degradations)?;
        Ok(self.alpha_selector().select(&self.model, batch, context))
    }

    /// Validates capacity for a job through the per-device KV shard
    /// ledger: every sequence's cache stripe plus (storage-resident)
    /// weights must place onto the actual devices — a full or degraded
    /// device rejects placement even when the aggregate has room — and
    /// the writeback buffer must fit host DRAM. Reads only the spec and
    /// the straggler list.
    pub fn check_capacity(&self, spec: &BatchSpec) -> Result<(), CoreError> {
        let mut ledger = self.kv_ledger()?;
        let alpha = self.alpha_selector().select(&self.model, spec.batch, spec.context_len);
        let max_ctx = spec.context_len + spec.output_len;
        let m = &self.model;
        let per_seq = m.cache_bytes_per_token(alpha) as u64 * max_ctx;
        let cache = per_seq * spec.batch as u64;
        let weights_on_dev = match weight_source(&self.spec, m) {
            WeightSource::Storage => m.weight_bytes(),
            WeightSource::HostDram => 0,
        };
        // The ledger is dropped on return, so no sequence's placement is
        // recorded.
        let placed = ledger.reserve_evenly(weights_on_dev).is_ok()
            && (0..spec.batch).all(|_| ledger.place_unowned(per_seq).is_ok());
        if !placed {
            // `available` is the placeable free space at the point the
            // ledger rejected placement (weights and earlier sequences
            // already placed) — the constraint that actually fired, which
            // with a full stripe member can be far below the aggregate.
            return Err(CoreError::DeviceCapacityExceeded {
                needed: cache + weights_on_dev,
                available: ledger.placeable_free(),
            });
        }
        let buffer = peak_buffer_bytes(self.config.spill_interval(), m, spec.batch);
        if buffer > self.spec.host.dram_bytes {
            return Err(CoreError::HostOom {
                needed: buffer,
                available: self.spec.host.dram_bytes,
            });
        }
        Ok(())
    }

    /// Runs the decode phase of a job and reports aggregate throughput.
    ///
    /// Models one writeback cycle (`c` steps, capped at `output_len`) at
    /// the *true* per-step contexts of a window centered on mid-generation
    /// ([`BatchSpec::context_at_step`]), and scales to the full output
    /// length. The window costs at most two step solves: its middle
    /// non-spill step, weighted by the window's non-spill steps, and its
    /// spill step. Seconds, utilizations and traffic are weighted means
    /// over them, and the last solve gives the reported breakdown.
    /// (Earlier revisions froze every simulated step at the midpoint
    /// context `context + output_len/2`; the centered window agrees with
    /// that approximation to within a fraction of a percent for the
    /// paper's shapes — see the `serving.rs` regression test.)
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidJob`] if a size is zero; capacity/validation
    /// errors as in [`HilosSystem::check_capacity`], or a wrapped
    /// simulation error.
    pub fn run_decode(
        &self,
        batch: u32,
        context: u64,
        output_len: u64,
    ) -> Result<RunReport, CoreError> {
        check_job(&[("batch", batch as u64), ("context", context), ("output_len", output_len)])?;
        let spec = BatchSpec::new(batch, context, output_len);
        self.check_capacity(&spec)?;
        let alpha = self.alpha_selector().select(&self.model, batch, context);
        let mut exec = DecodeStepExecutor::new(self)?;

        let solves = window_solves(&self.config, output_len);
        let steps = solves.iter().map(|&(_, _, weight)| weight).sum::<u64>();

        let mut total = 0.0;
        let mut last_categories = Vec::new();
        let mut gpu_u = 0.0;
        let mut cpu_u = 0.0;
        let mut dram_u = 0.0;
        let mut host_bytes = 0.0;
        let mut internal_bytes = 0.0;

        for (k, &(step, decision, weight)) in solves.iter().enumerate() {
            // Only the last solve's breakdown is reported.
            let last = k + 1 == solves.len();
            let ctx = spec.context_at_step(step);
            let (o, categories) =
                exec.execute_step_breakdown(batch, ctx, alpha, &decision, last)?;
            let w = weight as f64;
            total += w * o.seconds;
            gpu_u += w * o.gpu_utilization;
            cpu_u += w * o.cpu_utilization;
            dram_u += w * o.dram_utilization;
            host_bytes += w * o.host_pcie_bytes;
            internal_bytes += w * o.internal_read_bytes;
            last_categories = categories;
        }

        let avg = total / steps as f64;
        let n_steps = steps as f64;
        // Physical NAND writes per step, from the §4.3 spill model.
        let nand_write_bytes_per_step = decode_nand_write_bytes(self, alpha, batch as u64);

        Ok(RunReport {
            batch,
            output_len,
            avg_step_seconds: avg,
            decode_seconds: avg * output_len as f64,
            alpha,
            category_seconds: last_categories,
            gpu_utilization: gpu_u / n_steps,
            cpu_utilization: cpu_u / n_steps,
            dram_utilization: dram_u / n_steps,
            host_pcie_bytes_per_step: host_bytes / n_steps,
            internal_read_bytes_per_step: internal_bytes / n_steps,
            nand_write_bytes_per_step,
        })
    }

    /// Runs the prefill phase.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidJob`] if a size is zero; capacity/validation
    /// errors, or a wrapped simulation error.
    pub fn run_prefill(&self, batch: u32, context: u64) -> Result<PrefillReport, CoreError> {
        check_job(&[("batch", batch as u64), ("context", context)])?;
        let alpha = self.alpha_selector().select(&self.model, batch, context);
        let seconds = DecodeStepExecutor::new(self)?.execute_prefill(batch, context, alpha)?;
        let cache_bytes = self.model.cache_bytes_per_token(alpha) * batch as f64 * context as f64;
        Ok(PrefillReport { seconds, cache_bytes_written: cache_bytes })
    }

    /// Runs a full job: prefill followed by decode.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidJob`] if a size is zero; capacity/validation
    /// errors, or a wrapped simulation error.
    pub fn run_job(&self, spec: &BatchSpec) -> Result<JobReport, CoreError> {
        let prefill = self.run_prefill(spec.batch, spec.context_len)?;
        let decode = self.run_decode(spec.batch, spec.context_len, spec.output_len)?;
        Ok(JobReport { prefill, decode })
    }
}

/// The step solves that stand for `run_decode`'s simulated window, in
/// window order: (step index, writeback decision, weight), the weights
/// summing to the window's length.
///
/// The window is one writeback cycle (`c` steps, capped at `output_len`;
/// one step with delayed writeback off) centered on mid-generation, so
/// the sampled steps average to the same operating point the old
/// midpoint approximation used. Its `n` non-spill steps are solved at
/// their middle step, at its own writeback phase and context, with
/// weight `n`; an even `n` is solved at both middle steps instead, with
/// weight `n/2` each ([`middle_of`]), so every quantity linear in context
/// and buffer sums exactly. In a full cycle those phases are the ones
/// [`simulated_decision`](crate::simulated_decision) maps every non-spill
/// phase to, so the offline runner and the serving memo solve the same
/// step graphs. The spill step, last in a full cycle, is solved with
/// weight 1.
fn window_solves(config: &HilosConfig, output_len: u64) -> Vec<(u64, SpillDecision, u64)> {
    let steps = if config.delayed_writeback() {
        (config.spill_interval() as u64).min(output_len)
    } else {
        1
    };
    let window_start = (output_len - steps) / 2;
    let spill = decision_at(config, steps - 1).spill_now;
    let quiet = steps - spill as u64;
    let mut solves = Vec::with_capacity(3);
    if quiet > 0 {
        let (lower, upper) = (middle_of(quiet, 0), middle_of(quiet, quiet - 1));
        let weight = quiet / (1 + upper - lower);
        solves.extend((lower..=upper).map(|i| (window_start + i, decision_at(config, i), weight)));
    }
    if spill {
        solves.push((window_start + steps - 1, decision_at(config, steps - 1), 1));
    }
    solves
}

/// [`CoreError::InvalidJob`] naming the first zero among a job's sizes.
fn check_job(sizes: &[(&'static str, u64)]) -> Result<(), CoreError> {
    match sizes.iter().find(|&&(_, v)| v == 0) {
        Some(&(field, _)) => Err(CoreError::InvalidJob { field }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlphaPolicy;
    use hilos_llm::presets;

    fn hilos(n: usize) -> HilosSystem {
        HilosSystem::new(&SystemSpec::a100_smartssd(n), &presets::opt_66b(), &HilosConfig::new(n))
            .unwrap()
    }

    #[test]
    fn decode_runs_and_reports() {
        let sys = hilos(8).with_sim_layers(4);
        let r = sys.run_decode(16, 32 * 1024, 8).unwrap();
        assert!(r.tokens_per_second() > 0.0);
        assert!(r.avg_step_seconds > 0.0);
        assert!(r.alpha > 0.0, "MHA should engage the X-cache");
        assert!(!r.category_seconds.is_empty());
    }

    #[test]
    fn alpha_is_half_on_the_16_device_testbed() {
        // §6.4: B_SSD/B_PCI ≈ 3 on the 16-SmartSSD testbed ⇒ α = 50%.
        let sys = HilosSystem::new(
            &SystemSpec::a100_smartssd(16),
            &presets::opt_66b(),
            &HilosConfig::new(16),
        )
        .unwrap();
        assert_eq!(sys.select_alpha(16, 32 * 1024).unwrap(), 0.5);
    }

    #[test]
    fn validation_errors() {
        // No accelerators in a conventional-SSD system.
        let err =
            HilosSystem::new(&SystemSpec::a100_pm9a3(4), &presets::opt_66b(), &HilosConfig::new(4))
                .unwrap_err();
        assert_eq!(err, CoreError::NoAccelerators);

        // More devices than the chassis holds.
        let err = HilosSystem::new(
            &SystemSpec::a100_smartssd(4),
            &presets::opt_66b(),
            &HilosConfig::new(8),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::NotEnoughDevices { requested: 8, available: 4 }));
    }

    #[test]
    fn out_of_range_degradation_is_an_error_not_a_healthy_array() {
        // Every entry point reports the same error, whatever the α policy.
        // The last chassis holds 8 devices but its system is trimmed to 4,
        // so device 6 does not exist.
        let cases = [
            (4, HilosConfig::new(4), 4),
            (8, HilosConfig::ans_only(8), 8),
            (8, HilosConfig::new(4), 6),
        ];
        for (chassis, config, index) in cases {
            let sys =
                HilosSystem::new(&SystemSpec::a100_smartssd(chassis), &presets::opt_30b(), &config)
                    .unwrap()
                    .with_sim_layers(1)
                    .with_degraded_device(index, 0.5);
            let n = config.n_devices();
            let expect = CoreError::Platform(format!(
                "degraded device {index} is out of range for {n} devices"
            ));
            assert_eq!(sys.check_capacity(&BatchSpec::new(8, 4096, 4)).unwrap_err(), expect);
            assert_eq!(sys.select_alpha(8, 4096).unwrap_err(), expect);
            assert_eq!(sys.run_prefill(8, 4096).unwrap_err(), expect);
            assert_eq!(sys.run_decode(8, 4096, 4).unwrap_err(), expect);
            let err = crate::ServeEngine::new(sys, crate::ServeConfig::new(8)).unwrap_err();
            assert_eq!(err, expect);
        }
    }

    #[test]
    fn invalid_degradation_factor_is_an_error_not_a_panic() {
        for factor in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let sys = hilos(4).with_sim_layers(1).with_degraded_device(2, factor);
            let expect = CoreError::Platform(format!(
                "degraded device 2 has bandwidth factor {factor}, not finite and positive"
            ));
            assert_eq!(sys.check_capacity(&BatchSpec::new(8, 4096, 4)).unwrap_err(), expect);
            assert_eq!(sys.select_alpha(8, 4096).unwrap_err(), expect);
            assert_eq!(sys.run_prefill(8, 4096).unwrap_err(), expect);
            assert_eq!(sys.run_decode(8, 4096, 4).unwrap_err(), expect);
            let err = crate::ServeEngine::new(sys, crate::ServeConfig::new(8)).unwrap_err();
            assert_eq!(err, expect);
        }
    }

    #[test]
    fn capacity_check_rejects_oversized_jobs() {
        let sys = hilos(4);
        // 175B on 4 devices at extreme batch x context exceeds 15.4 TB.
        let sys175 = HilosSystem::new(
            &SystemSpec::a100_smartssd(4),
            &presets::opt_175b(),
            &HilosConfig::new(4),
        )
        .unwrap();
        let err = sys175.check_capacity(&BatchSpec::new(64, 256 * 1024, 64)).unwrap_err();
        assert!(matches!(err, CoreError::DeviceCapacityExceeded { .. }));
        // A sane job passes.
        sys.check_capacity(&BatchSpec::new(16, 32 * 1024, 64)).unwrap();
    }

    #[test]
    fn gqa_model_disables_xcache() {
        for n in [8, 16] {
            let sys = HilosSystem::new(
                &SystemSpec::a100_smartssd(n),
                &presets::qwen25_32b(),
                &HilosConfig::new(n),
            )
            .unwrap();
            assert_eq!(sys.select_alpha(16, 32 * 1024).unwrap(), 0.0, "{n} devices");
        }
    }

    #[test]
    fn longer_context_slows_decoding() {
        let sys = hilos(8).with_sim_layers(4);
        let short = sys.run_decode(16, 16 * 1024, 4).unwrap();
        let long = sys.run_decode(16, 64 * 1024, 4).unwrap();
        assert!(long.avg_step_seconds > 2.0 * short.avg_step_seconds);
    }

    #[test]
    fn full_job_combines_phases() {
        let sys = hilos(8).with_sim_layers(4);
        let job = sys.run_job(&BatchSpec::new(8, 16 * 1024, 8)).unwrap();
        assert!(job.prefill.seconds > 0.0);
        assert!(job.total_seconds() > job.decode.decode_seconds);
        assert!(job.tokens_per_second() > 0.0);
        assert!(job.prefill.cache_bytes_written > 0.0);
    }

    #[test]
    fn host_stays_underutilized_before_xcache_fig4c() {
        // Fig 4c: with bare ANS the host resources sit under ~20-30% —
        // the observation that motivates the cooperative X-cache.
        let sys = HilosSystem::new(
            &SystemSpec::a100_smartssd(8),
            &presets::opt_66b(),
            &HilosConfig::ans_only(8),
        )
        .unwrap()
        .with_sim_layers(4);
        let r = sys.run_decode(16, 32 * 1024, 4).unwrap();
        assert!(r.cpu_utilization < 0.3, "cpu {}", r.cpu_utilization);
        assert!(r.gpu_utilization < 0.3, "gpu {}", r.gpu_utilization);
    }

    #[test]
    fn xcache_raises_gpu_utilization() {
        // The cooperative schedule puts the idle GPU to work (§4.2).
        let base = HilosSystem::new(
            &SystemSpec::a100_smartssd(8),
            &presets::opt_66b(),
            &HilosConfig::ans_only(8),
        )
        .unwrap()
        .with_sim_layers(4);
        let coop = hilos(8).with_sim_layers(4);
        let u0 = base.run_decode(16, 32 * 1024, 4).unwrap().gpu_utilization;
        let u1 = coop.run_decode(16, 32 * 1024, 4).unwrap().gpu_utilization;
        assert!(u1 > u0 * 1.5, "{u1} vs {u0}");
    }

    #[test]
    fn ans_cuts_host_interconnect_traffic() {
        // The point of §4.1: interconnect traffic per step is tiny next to
        // the KV cache the devices read internally.
        let sys = HilosSystem::new(
            &SystemSpec::a100_smartssd(8),
            &presets::opt_66b(),
            &HilosConfig::ans_only(8),
        )
        .unwrap()
        .with_sim_layers(4);
        let r = sys.run_decode(16, 32 * 1024, 4).unwrap();
        assert!(
            r.internal_read_bytes_per_step > 2.0 * r.host_pcie_bytes_per_step,
            "internal {} vs host {}",
            r.internal_read_bytes_per_step,
            r.host_pcie_bytes_per_step
        );
    }

    #[test]
    fn zero_sized_jobs_are_errors() {
        let sys = hilos(8).with_sim_layers(1);
        let err = |field| Err(CoreError::InvalidJob { field });
        assert_eq!(sys.run_decode(0, 1024, 8).map(|_| ()), err("batch"));
        assert_eq!(sys.run_decode(16, 0, 8).map(|_| ()), err("context"));
        assert_eq!(sys.run_decode(16, 1024, 0).map(|_| ()), err("output_len"));
        assert_eq!(sys.run_prefill(0, 1024).map(|_| ()), err("batch"));
        assert_eq!(sys.run_prefill(4, 0).map(|_| ()), err("context"));
        let job =
            |batch, context, output_len| BatchSpec { batch, context_len: context, output_len };
        assert_eq!(sys.run_job(&job(0, 1024, 8)).map(|_| ()), err("batch"));
        assert_eq!(sys.run_job(&job(4, 0, 8)).map(|_| ()), err("context"));
        assert_eq!(sys.run_job(&job(4, 1024, 0)).map(|_| ()), err("output_len"));
    }

    #[test]
    fn zero_sim_layers_is_an_error_not_a_panic() {
        let sys = hilos(8).with_sim_layers(0);
        let err = Err(CoreError::InvalidJob { field: "sim_layers" });
        assert_eq!(sys.run_prefill(4, 1024).map(|_| ()), err);
        assert_eq!(sys.run_decode(16, 1024, 8).map(|_| ()), err);
        let serve = crate::ServeEngine::new(sys.clone(), crate::ServeConfig::new(8));
        assert_eq!(serve.map(|_| ()), err);
        // The static questions build no world and never read the layer
        // count, so they still answer.
        assert_eq!(sys.check_capacity(&BatchSpec::new(16, 1024, 8)), Ok(()));
    }

    /// The full-cycle reference `run_decode`'s two weighted solves stand
    /// in for: every step of the centered window solved at its own
    /// writeback phase. Returns (avg step seconds, host PCIe bytes per
    /// step, internal read bytes per step).
    fn full_cycle(sys: &HilosSystem, batch: u32, context: u64, output_len: u64) -> [f64; 3] {
        let mut exec = DecodeStepExecutor::new(sys).unwrap();
        let alpha = sys.alpha_selector().select(&sys.model, batch, context);
        let steps = if sys.config.delayed_writeback() {
            (sys.config.spill_interval() as u64).min(output_len)
        } else {
            1
        };
        let window_start = (output_len - steps) / 2;
        let mut sums = [0.0; 3];
        for i in 0..steps {
            let decision = decision_at(&sys.config, i);
            let o = exec.execute_step(batch, context + window_start + i, alpha, &decision).unwrap();
            sums[0] += o.seconds;
            sums[1] += o.host_pcie_bytes;
            sums[2] += o.internal_read_bytes;
        }
        sums.map(|x| x / steps as f64)
    }

    fn decode_triple(r: &RunReport) -> [f64; 3] {
        [r.avg_step_seconds, r.host_pcie_bytes_per_step, r.internal_read_bytes_per_step]
    }

    #[test]
    fn two_solves_track_the_full_writeback_cycle() {
        // The offline workload's shapes: 5 models x 4/8/16 SmartSSDs,
        // 16K-128K context, 64 output tokens, at the paper's c = 16 and
        // at odd intervals, whose even count of non-spill phases is
        // solved at its two middle phases.
        for model in presets::all().into_iter().take(5) {
            for (n, batch) in [(4, 8), (8, 32), (16, 64)] {
                for c in [16, 3, 11] {
                    let config = HilosConfig::new(n).with_spill_interval(c);
                    let sys = HilosSystem::new(&SystemSpec::a100_smartssd(n), &model, &config)
                        .unwrap()
                        .with_sim_layers(4);
                    for context in [16 << 10, 64 << 10, 128 << 10] {
                        let got = decode_triple(&sys.run_decode(batch, context, 64).unwrap());
                        let want = full_cycle(&sys, batch, context, 64);
                        let rel = |k: usize| (got[k] - want[k]).abs() / want[k];
                        let at =
                            format!("{} on {n} SSDs, c={c} bs={batch} ctx={context}", model.name());
                        assert!(rel(0) <= 1e-4, "{at}: step seconds off by {:e}", rel(0));
                        assert!(rel(1) <= 1e-12, "{at}: host bytes off by {:e}", rel(1));
                        assert!(rel(2) <= 1e-12, "{at}: internal bytes off by {:e}", rel(2));
                    }
                }
            }
        }
    }

    #[test]
    fn full_cycle_solves_are_the_simulated_decisions() {
        // An even c leaves an odd count of non-spill phases, solved at
        // (c − 2)/2; an odd c leaves an even count, solved at (c − 3)/2
        // and (c − 1)/2 with half the weight each.
        for c in [2, 3, 11, 16, 32] {
            let config = HilosConfig::new(8).with_spill_interval(c);
            let solves = window_solves(&config, 64);
            let buffers: Vec<u32> = solves.iter().map(|s| s.1.buffered_tokens).collect();
            if c % 2 == 0 {
                assert_eq!(buffers, vec![(c - 2) / 2, c - 1], "c={c}");
            } else {
                assert_eq!(buffers, vec![(c - 3) / 2, (c - 1) / 2, c - 1], "c={c}");
            }
            assert_eq!(solves.iter().map(|s| s.2).sum::<u64>(), c as u64);
            for &(_, d, _) in &solves {
                assert_eq!(d, crate::simulated_decision(&config, d), "c={c}: {d:?}");
            }
        }
    }

    #[test]
    fn one_step_windows_match_the_full_cycle_bit_for_bit() {
        let configs = [
            HilosConfig::new(8),
            HilosConfig::new(8).with_spill_interval(1),
            HilosConfig::ans_only(8),
        ];
        for config in configs {
            let sys = HilosSystem::new(&SystemSpec::a100_smartssd(8), &presets::opt_66b(), &config)
                .unwrap()
                .with_sim_layers(4);
            let lens: &[u64] = if config.spill_interval() == 16 && config.delayed_writeback() {
                &[1]
            } else {
                &[1, 7, 64]
            };
            for &output_len in lens {
                let got = decode_triple(&sys.run_decode(16, 32 << 10, output_len).unwrap());
                assert_eq!(got, full_cycle(&sys, 16, 32 << 10, output_len), "{config:?}");
            }
        }
    }

    #[test]
    fn windows_shorter_than_a_cycle_track_the_full_window() {
        // No spill step: one solve at the middle step's own phase, or two
        // at the middle steps of an even window. The buffered tail and the
        // context both grow one token a step, so traffic is exact.
        let sys = hilos(8).with_sim_layers(4);
        for context in [1 << 10, 16 << 10, 128 << 10] {
            for output_len in [2, 4, 9, 15] {
                let got = decode_triple(&sys.run_decode(16, context, output_len).unwrap());
                let want = full_cycle(&sys, 16, context, output_len);
                let rel = |k: usize| (got[k] - want[k]).abs() / want[k];
                let at = format!("ctx={context} out={output_len}");
                assert!(rel(0) <= 1e-4, "{at}: step seconds off by {:e}", rel(0));
                assert!(rel(1) <= 1e-12, "{at}: host bytes off by {:e}", rel(1));
                assert!(rel(2) <= 1e-12, "{at}: internal bytes off by {:e}", rel(2));
            }
        }
    }

    /// Fig. 15's four ablation points on OPT-66B over 16 SmartSSDs
    /// (batch 16, 32K context, 64 output tokens): prefill seconds, mean
    /// decode step seconds and α, pinned bit for bit.
    #[test]
    fn fig15_ablation_points_are_pinned_bit_for_bit() {
        let points = [
            ("ANS", HilosConfig::ans_only(16), [0x4075a62a2da4f0f1, 0x4039b32d935464c0, 0]),
            (
                "ANS+WB",
                HilosConfig::ans_only(16).with_writeback(true),
                [0x4075a62a2da4f0f1, 0x403888f0f7436bd9, 0],
            ),
            (
                "ANS+X",
                HilosConfig::ans_only(16).with_alpha(AlphaPolicy::Auto),
                [0x4075091c92a3e230, 0x4034071978528caf, 0x3fe0000000000000],
            ),
            (
                "ANS+WB+X",
                HilosConfig::ans_only(16).with_writeback(true).with_alpha(AlphaPolicy::Auto),
                [0x4075091c92a3e230, 0x4034072d2079ec72, 0x3fe0000000000000],
            ),
        ];
        for (name, cfg, want) in points {
            let sys = HilosSystem::new(&SystemSpec::a100_smartssd(16), &presets::opt_66b(), &cfg)
                .unwrap()
                .with_sim_layers(4);
            let prefill = sys.run_prefill(16, 32 * 1024).unwrap();
            let decode = sys.run_decode(16, 32 * 1024, 64).unwrap();
            let got = [
                prefill.seconds.to_bits(),
                decode.avg_step_seconds.to_bits(),
                decode.alpha.to_bits(),
            ];
            assert_eq!(got, want, "{name}: [prefill s, step s, alpha] bits moved");
        }
    }
}
