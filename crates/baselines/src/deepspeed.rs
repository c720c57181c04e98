//! DeepSpeed ZeRO-Inference extended with Unified Virtual Memory — the
//! `DS+UVM(DRAM)` baseline of §6.1.
//!
//! The paper extends ZeRO-Inference with UVM because long-context
//! intermediate activations overflow GPU memory; the UVM fault path then
//! throttles every KV sweep, costing >4× versus FLEX(DRAM) (Fig. 10).
//! We model that by routing the attention's KV traffic through a
//! fault-handled path with far lower effective bandwidth than raw DRAM.

use crate::error::BaselineError;
use crate::flexgen::{FlexGenSystem, KvLocation};
use hilos_core::RunReport;
use hilos_llm::ModelConfig;
use hilos_platform::SystemSpec;

/// Effective bandwidth of UVM-managed memory sweeps (page-fault handling
/// plus migration): calibrated so DS+UVM lands ≈4× below FLEX(DRAM), as
/// Fig. 10 measures.
pub const UVM_EFFECTIVE_BW: f64 = 5.0e9;

/// The DeepSpeed + UVM baseline.
#[derive(Debug, Clone)]
pub struct DeepSpeedUvm {
    inner: FlexGenSystem,
}

impl DeepSpeedUvm {
    /// Creates the deployment (KV in DRAM, UVM-managed).
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the underlying model.
    pub fn new(spec: &SystemSpec, model: &ModelConfig) -> Result<Self, BaselineError> {
        Ok(DeepSpeedUvm {
            inner: FlexGenSystem::new(spec, model, KvLocation::HostDram)?
                .with_uvm_kv_bw(UVM_EFFECTIVE_BW),
        })
    }

    /// Overrides the number of simulated layers. Zero layers makes every
    /// run fail with [`BaselineError::InvalidJob`] (`sim_layers`).
    pub fn with_sim_layers(mut self, layers: u32) -> Self {
        self.inner = self.inner.with_sim_layers(layers);
        self
    }

    /// Capacity check (same DRAM limits as FLEX(DRAM)).
    ///
    /// # Errors
    ///
    /// [`BaselineError::HostOom`] when the working set exceeds host DRAM.
    pub fn check_capacity(
        &self,
        batch: u32,
        context: u64,
        output: u64,
    ) -> Result<(), BaselineError> {
        self.inner.check_capacity(batch, context, output)
    }

    /// Runs the decode phase.
    ///
    /// # Errors
    ///
    /// Capacity or simulation errors.
    pub fn run_decode(
        &self,
        batch: u32,
        context: u64,
        output_len: u64,
    ) -> Result<RunReport, BaselineError> {
        self.inner.run_decode(batch, context, output_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilos_llm::presets;

    #[test]
    fn uvm_is_several_times_slower_than_flex_dram() {
        let spec = SystemSpec::a100_pm9a3(4);
        let model = presets::opt_30b();
        let flex =
            FlexGenSystem::new(&spec, &model, KvLocation::HostDram).unwrap().with_sim_layers(4);
        let ds = DeepSpeedUvm::new(&spec, &model).unwrap().with_sim_layers(4);
        let f = flex.run_decode(4, 32 * 1024, 4).unwrap().tokens_per_second();
        let d = ds.run_decode(4, 32 * 1024, 4).unwrap().tokens_per_second();
        let slowdown = f / d;
        // Fig 10: "a slowdown of over 4x relative to FLEX(DRAM)".
        assert!(slowdown > 3.0, "slowdown {slowdown}");
        assert!(slowdown < 12.0, "slowdown {slowdown} implausibly large");
    }

    #[test]
    fn zero_sim_layers_is_an_error_not_a_panic() {
        let ds = DeepSpeedUvm::new(&SystemSpec::a100_pm9a3(4), &presets::opt_30b())
            .unwrap()
            .with_sim_layers(0);
        assert_eq!(
            ds.run_decode(4, 16 * 1024, 4).unwrap_err(),
            BaselineError::InvalidJob { field: "sim_layers" }
        );
    }

    #[test]
    fn same_oom_envelope_as_flex_dram() {
        let ds = DeepSpeedUvm::new(&SystemSpec::a100_pm9a3(4), &presets::opt_66b()).unwrap();
        assert!(matches!(ds.check_capacity(16, 32 * 1024, 64), Err(BaselineError::HostOom { .. })));
    }
}
