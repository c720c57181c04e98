//! The inference controller: runs prefill + decode jobs on a built system
//! and aggregates reports.

use crate::config::{AlphaPolicy, HilosConfig};
use crate::scheduler::{weight_source, WeightSource};
use crate::step::{AlphaSelector, DecodeStepExecutor};
use crate::writeback::{spill_nand_bytes_per_token, WritebackManager};
use hilos_accel::{AccelTimingModel, ResourceModel};
use hilos_llm::{BatchSpec, ModelConfig};
use hilos_platform::{BuiltSystem, SystemSpec};
use hilos_sim::SimError;
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
        }
    }
}

impl Error for CoreError {}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        CoreError::Sim(e)
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
/// prefill/decode jobs. Each call builds one fresh simulation world — the
/// α selection, the capacity check and the simulated steps all read that
/// world — so runs are independent and deterministic.
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
    /// faithful, lower is faster. Default 8.
    pub fn with_sim_layers(mut self, layers: u32) -> Self {
        assert!(layers >= 1, "must simulate at least one layer");
        self.sim_layers = layers;
        self
    }

    /// Injects a straggler: scales device `index`'s storage bandwidth by
    /// `factor` (e.g. 0.5 halves it). HILOS partitions the KV cache
    /// statically, so a slow device gates every step — an availability
    /// sensitivity the `repro straggler` extension quantifies.
    pub fn with_degraded_device(mut self, index: usize, factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "factor must be positive");
        self.degradations.push((index, factor));
        self
    }

    pub(crate) fn sim_layers(&self) -> u32 {
        self.sim_layers
    }

    pub(crate) fn build_world(&self) -> Result<BuiltSystem, CoreError> {
        let accel = AccelTimingModel::smartssd(self.model.d_group());
        BuiltSystem::build_with_degradations(
            &self.spec,
            Some(&accel),
            self.model.head_dim(),
            &self.degradations,
        )
        .map_err(|e| CoreError::Platform(e.to_string()))
    }

    /// The α the cache scheduler (§4.2) selects for a given job shape.
    ///
    /// Delegates to [`crate::AlphaSelector`] — the single home of the
    /// §4.2 formula, shared with the serving layer — at this system's
    /// bandwidth operating point.
    pub fn select_alpha(&self, batch: u32, context: u64) -> Result<f64, CoreError> {
        if !self.config.cooperative_xcache() {
            return Ok(0.0);
        }
        if let AlphaPolicy::Fixed(a) = self.config.alpha_policy() {
            return Ok(a);
        }
        let sys = self.build_world()?;
        Ok(AlphaSelector::new(&self.config, &sys).select(&self.model, batch, context))
    }

    /// Validates capacity for a job through the per-device KV shard
    /// ledger: every sequence's cache stripe plus (storage-resident)
    /// weights must place onto the actual devices — a full or degraded
    /// device rejects placement even when the aggregate has room — and
    /// the writeback buffer must fit host DRAM.
    pub fn check_capacity(&self, spec: &BatchSpec) -> Result<(), CoreError> {
        let sys = self.build_world()?;
        let alpha = AlphaSelector::new(&self.config, &sys).select(
            &self.model,
            spec.batch,
            spec.context_len,
        );
        self.check_capacity_in(&sys, spec, alpha)
    }

    /// [`HilosSystem::check_capacity`] on an already-built world, at the
    /// α selected for the job.
    fn check_capacity_in(
        &self,
        sys: &BuiltSystem,
        spec: &BatchSpec,
        alpha: f64,
    ) -> Result<(), CoreError> {
        let max_ctx = spec.context_len + spec.output_len;
        let m = &self.model;
        let per_seq = ((1.0 - alpha) * m.kv_bytes_per_token() as f64
            + alpha * m.x_bytes_per_token() as f64) as u64
            * max_ctx;
        let cache = per_seq * spec.batch as u64;
        let weights_on_dev = match weight_source(sys, m) {
            WeightSource::Storage => m.weight_bytes(),
            WeightSource::HostDram => 0,
        };
        let mut ledger = sys.kv_ledger();
        let placed = ledger.reserve_evenly(weights_on_dev).is_ok()
            && (0..spec.batch as u64).all(|seq| ledger.allocate(seq, per_seq).is_ok());
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
        let buffer =
            WritebackManager::new(self.config.spill_interval()).peak_buffer_bytes(m, spec.batch);
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
    /// Simulates one full writeback cycle (`c` steps, capped at
    /// `output_len`) at the *true* per-step contexts of a window centered
    /// on mid-generation ([`BatchSpec::context_at_step`]), and scales to
    /// the full output length. (Earlier revisions froze every simulated
    /// step at the midpoint context `context + output_len/2`; the centered
    /// window agrees with that approximation to within a fraction of a
    /// percent for the paper's shapes — see the `serving.rs` regression
    /// test — while letting the step executor see each step's real
    /// context.)
    ///
    /// # Errors
    ///
    /// Capacity/validation errors as in [`HilosSystem::check_capacity`],
    /// or a wrapped simulation error.
    pub fn run_decode(
        &self,
        batch: u32,
        context: u64,
        output_len: u64,
    ) -> Result<RunReport, CoreError> {
        let spec = BatchSpec::new(batch, context, output_len);
        let mut exec = DecodeStepExecutor::new(self)?;
        let alpha =
            AlphaSelector::new(&self.config, exec.system()).select(&self.model, batch, context);
        self.check_capacity_in(exec.system(), &spec, alpha)?;

        let steps = if self.config.delayed_writeback() {
            (self.config.spill_interval() as u64).min(output_len).max(1)
        } else {
            1
        };
        // Center the simulated window on mid-generation so the sampled
        // steps average to the same operating point the old midpoint
        // approximation used. For output_len ≤ c the window is exact.
        let window_start = (output_len - steps) / 2;

        let mut wb = WritebackManager::new(self.config.spill_interval());
        let mut total = 0.0;
        let mut last_categories = Vec::new();
        let mut gpu_u = 0.0;
        let mut cpu_u = 0.0;
        let mut dram_u = 0.0;
        let mut host_bytes = 0.0;
        let mut internal_bytes = 0.0;

        for i in 0..steps {
            let decision = if self.config.delayed_writeback() {
                wb.on_step()
            } else {
                crate::writeback::SpillDecision {
                    buffered_tokens: 0,
                    spill_now: false,
                    spill_tokens: 0,
                }
            };
            let ctx = spec.context_at_step(window_start + i);
            // Only the last step's breakdown is reported.
            let last = i + 1 == steps;
            let (o, categories) =
                exec.execute_step_breakdown(batch, ctx, alpha, &decision, last)?;
            total += o.seconds;
            gpu_u += o.gpu_utilization;
            cpu_u += o.cpu_utilization;
            dram_u += o.dram_utilization;
            host_bytes += o.host_pcie_bytes;
            internal_bytes += o.internal_read_bytes;
            last_categories = categories;
        }

        let avg = total / steps as f64;
        let n_steps = steps as f64;
        // Physical NAND writes per step, from the §4.3 spill model.
        let nand_per_token = if self.config.delayed_writeback() {
            spill_nand_bytes_per_token(
                &self.model,
                self.config.spill_interval(),
                self.spec.storage.ssd_spec().page_bytes(),
            )
        } else {
            spill_nand_bytes_per_token(&self.model, 1, self.spec.storage.ssd_spec().page_bytes())
        };
        let x_discount = 1.0 - alpha * (1.0 - self.model.x_to_kv_ratio());
        let nand_write_bytes_per_step = nand_per_token * batch as f64 * x_discount;

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
    /// Capacity/validation errors, or a wrapped simulation error.
    pub fn run_prefill(&self, batch: u32, context: u64) -> Result<PrefillReport, CoreError> {
        let mut exec = DecodeStepExecutor::new(self)?;
        let alpha =
            AlphaSelector::new(&self.config, exec.system()).select(&self.model, batch, context);
        let seconds = exec.execute_prefill(batch, context, alpha)?;
        let cache_bytes = ((1.0 - alpha) * self.model.kv_bytes_per_token() as f64
            + alpha * self.model.x_bytes_per_token() as f64)
            * batch as f64
            * context as f64;
        Ok(PrefillReport { seconds, cache_bytes_written: cache_bytes })
    }

    /// Runs a full job: prefill followed by decode.
    ///
    /// # Errors
    ///
    /// Capacity/validation errors, or a wrapped simulation error.
    pub fn run_job(&self, spec: &BatchSpec) -> Result<JobReport, CoreError> {
        let prefill = self.run_prefill(spec.batch, spec.context_len)?;
        let decode = self.run_decode(spec.batch, spec.context_len, spec.output_len)?;
        Ok(JobReport { prefill, decode })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
