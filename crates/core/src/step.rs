//! The reusable decode-step executor.
//!
//! One HILOS decoding step — build the Fig. 4a task graph, execute it on
//! the system's flow engine, account the interconnect traffic — used to be
//! inlined in `HilosSystem::run_decode`. The serving layer needs the same
//! step for *heterogeneous* batches whose composition changes between
//! steps, so the body lives here: [`DecodeStepExecutor`] owns one built
//! simulation world and executes steps against it at any `(batch,
//! context, α, writeback)` operating point, returning a [`StepOutcome`]
//! per step. `run_decode`, `run_prefill` and `core::serve` are all thin
//! drivers over this executor.

use crate::config::HilosConfig;
use crate::runner::{CoreError, HilosSystem};
use crate::scheduler::GDS_EFFICIENCY;
use crate::scheduler::{build_hilos_decode_step, build_hilos_prefill, DecodeStepSpec};
use crate::writeback::SpillDecision;
use crate::xcache::AlphaModel;
use hilos_llm::ModelConfig;
use hilos_platform::BuiltSystem;
use hilos_sim::execute;

/// Everything one executed decode step reports.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// Step wall-clock seconds, scaled to the model's full layer depth.
    pub seconds: f64,
    /// GPU utilization over the step, `[0, 1]`.
    pub gpu_utilization: f64,
    /// CPU utilization over the step.
    pub cpu_utilization: f64,
    /// Host DRAM-port utilization over the step.
    pub dram_utilization: f64,
    /// Bytes crossing the host interconnect (whole model, analytic).
    pub host_pcie_bytes: f64,
    /// Bytes read over the devices' internal paths (whole model).
    pub internal_read_bytes: f64,
}

/// Executes decode (and prefill) steps against one built simulation world.
///
/// The world is built once and reused: runs stay deterministic because the
/// engine is advanced only by the graphs executed on it, in call order.
#[derive(Debug)]
pub struct DecodeStepExecutor {
    sys: BuiltSystem,
    model: ModelConfig,
    config: HilosConfig,
    sim_layers: u32,
    layer_scale: f64,
}

impl DecodeStepExecutor {
    /// Builds the simulation world for `system`.
    ///
    /// # Errors
    ///
    /// Propagates platform build errors.
    pub fn new(system: &HilosSystem) -> Result<Self, CoreError> {
        let sys = system.build_world()?;
        let sim_layers = system.sim_layers();
        Ok(DecodeStepExecutor {
            sys,
            model: system.model().clone(),
            config: system.config().clone(),
            sim_layers,
            layer_scale: system.model().layers() as f64 / sim_layers as f64,
        })
    }

    /// The built world (resources, devices, engine).
    pub fn system(&self) -> &BuiltSystem {
        &self.sys
    }

    /// Executes one decoding step at the given operating point.
    ///
    /// `context` is the *true* per-step context of the batch (for a
    /// uniform batch, [`hilos_llm::BatchSpec::context_at_step`]; for a
    /// heterogeneous serving batch, the mean context of the running
    /// requests — the step graph is linear in `batch × context`, so the
    /// mean reproduces the batch's total KV traffic).
    ///
    /// # Errors
    ///
    /// Wraps simulation errors.
    pub fn execute_step(
        &mut self,
        batch: u32,
        context: u64,
        alpha: f64,
        decision: &SpillDecision,
    ) -> Result<StepOutcome, CoreError> {
        self.execute_step_breakdown(batch, context, alpha, decision, false).map(|(o, _)| o)
    }

    /// [`DecodeStepExecutor::execute_step`], also returning the step's
    /// per-category task seconds (for the breakdown figures), sorted by
    /// category, when `breakdown` is set; empty otherwise, so callers that
    /// never read a breakdown never pay for one.
    ///
    /// # Errors
    ///
    /// Wraps simulation errors.
    pub(crate) fn execute_step_breakdown(
        &mut self,
        batch: u32,
        context: u64,
        alpha: f64,
        decision: &SpillDecision,
        breakdown: bool,
    ) -> Result<(StepOutcome, Vec<(String, f64)>), CoreError> {
        let step = DecodeStepSpec {
            batch,
            context,
            alpha,
            buffered_tokens: decision.buffered_tokens,
            spill_now: decision.spill_now,
            spill_tokens: decision.spill_tokens,
            sim_layers: self.sim_layers,
        };
        let graph = build_hilos_decode_step(&self.sys, &self.model, &self.config, &step);
        let timeline = execute(&mut self.sys.engine, &graph)?;

        // Traffic accounting (whole model, analytic — every flow that
        // crosses the system interconnect counted once).
        let m = &self.model;
        let bs = batch as f64;
        let s = context as f64;
        let layers = m.layers() as f64;
        let weights = m.decode_weight_traffic_bytes(batch) as f64;
        let scatter =
            (1.0 - alpha) * bs * (m.hidden() as f64 + 2.0 * m.kv_dim() as f64) * 2.0 * layers;
        let gather = (1.0 - alpha) * bs * m.hidden() as f64 * 2.0 * layers;
        let x_reads = alpha * bs * s * m.hidden() as f64 * 2.0 * layers;
        let spill = if decision.spill_now {
            decision.spill_tokens as f64
                * bs
                * ((1.0 - alpha) * 2.0 * m.kv_dim() as f64 + alpha * m.hidden() as f64)
                * 2.0
                * layers
        } else {
            0.0
        };
        let internal = (1.0 - alpha)
            * bs
            * 2.0
            * (s - decision.buffered_tokens as f64).max(0.0)
            * m.kv_dim() as f64
            * 2.0
            * layers;

        let outcome = StepOutcome {
            seconds: timeline.makespan().as_secs_f64() * self.layer_scale,
            gpu_utilization: timeline.utilization(self.sys.gpu),
            cpu_utilization: timeline.utilization(self.sys.cpu),
            dram_utilization: timeline.utilization(self.sys.host_dram),
            host_pcie_bytes: weights + scatter + gather + x_reads + spill,
            internal_read_bytes: internal,
        };
        let categories = if breakdown { timeline.category_seconds(&graph) } else { Vec::new() };
        Ok((outcome, categories))
    }

    /// Executes the prefill phase for a `batch × context` job and returns
    /// its layer-scaled wall-clock seconds.
    ///
    /// # Errors
    ///
    /// Wraps simulation errors.
    pub fn execute_prefill(
        &mut self,
        batch: u32,
        context: u64,
        alpha: f64,
    ) -> Result<f64, CoreError> {
        let graph =
            build_hilos_prefill(&self.sys, &self.model, batch, context, alpha, self.sim_layers);
        let timeline = execute(&mut self.sys.engine, &graph)?;
        Ok(timeline.makespan().as_secs_f64() * self.layer_scale)
    }
}

/// The §4.2 α selection, precomputed from one built world so the serving
/// layer can re-select α every time the batch composition changes without
/// rebuilding the system.
#[derive(Debug, Clone, Copy)]
pub struct AlphaSelector {
    enabled: bool,
    fixed: Option<f64>,
    b_ssd: f64,
    b_pci: f64,
    c_gpu: f64,
}

impl AlphaSelector {
    /// Captures the bandwidth operating point of `sys` under `config`.
    pub fn new(config: &HilosConfig, sys: &BuiltSystem) -> Self {
        let fixed = match config.alpha_policy() {
            crate::config::AlphaPolicy::Fixed(a) => Some(a),
            crate::config::AlphaPolicy::Auto => None,
        };
        AlphaSelector {
            enabled: config.cooperative_xcache(),
            fixed,
            b_ssd: sys.aggregate_internal_read_bw(),
            b_pci: sys.effective_pci_bw() * GDS_EFFICIENCY,
            c_gpu: sys.spec.gpu.fp16_flops,
        }
    }

    /// The α for a `batch × context` job shape (mirrors
    /// [`HilosSystem::select_alpha`] exactly).
    pub fn select(&self, model: &ModelConfig, batch: u32, context: u64) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        if let Some(a) = self.fixed {
            return a;
        }
        let bs = batch as f64;
        let s = context as f64;
        let layers = model.layers() as f64;
        AlphaModel {
            x_bytes: bs * s * model.hidden() as f64 * 2.0 * layers,
            kv_bytes: bs * 2.0 * s * model.kv_dim() as f64 * 2.0 * layers,
            b_ssd: self.b_ssd,
            b_pci: self.b_pci,
            regen_flops: 4.0 * bs * s * model.hidden() as f64 * model.kv_dim() as f64 * layers,
            c_gpu: self.c_gpu,
        }
        .select_alpha()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilos_llm::presets;
    use hilos_platform::SystemSpec;

    fn hilos(n: usize) -> HilosSystem {
        HilosSystem::new(&SystemSpec::a100_smartssd(n), &presets::opt_66b(), &HilosConfig::new(n))
            .unwrap()
            .with_sim_layers(2)
    }

    #[test]
    fn executor_steps_are_reusable_and_context_sensitive() {
        let system = hilos(8);
        let mut exec = DecodeStepExecutor::new(&system).unwrap();
        let quiet = SpillDecision { buffered_tokens: 0, spill_now: false, spill_tokens: 0 };
        let (short, categories) =
            exec.execute_step_breakdown(16, 16 * 1024, 0.5, &quiet, true).unwrap();
        let long = exec.execute_step(16, 64 * 1024, 0.5, &quiet).unwrap();
        assert!(long.seconds > 2.0 * short.seconds, "{} vs {}", long.seconds, short.seconds);
        assert!(short.internal_read_bytes > 0.0);
        assert!(categories.iter().any(|(c, _)| c == "loadkv"), "{categories:?}");
        let (_, none) = exec.execute_step_breakdown(16, 16 * 1024, 0.5, &quiet, false).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn alpha_selector_matches_system_selection() {
        let system = hilos(16);
        let exec = DecodeStepExecutor::new(&system).unwrap();
        let sel = AlphaSelector::new(system.config(), exec.system());
        for (b, s) in [(16u32, 32 * 1024u64), (8, 64 * 1024), (64, 8 * 1024)] {
            assert_eq!(
                sel.select(system.model(), b, s),
                system.select_alpha(b, s).unwrap(),
                "alpha diverged at bs={b} s={s}"
            );
        }
    }

    #[test]
    fn prefill_scales_with_context() {
        let system = hilos(8);
        let mut exec = DecodeStepExecutor::new(&system).unwrap();
        let t16 = exec.execute_prefill(4, 16 * 1024, 0.5).unwrap();
        let t32 = exec.execute_prefill(4, 32 * 1024, 0.5).unwrap();
        assert!(t32 > 1.5 * t16);
    }
}
