//! # hilos-baselines — the comparison systems of the evaluation
//!
//! Everything HILOS is measured against in §6:
//!
//! * [`FlexGenSystem`] — FlexGen-style offloading-based batched inference
//!   with the KV cache in host DRAM (`FLEX(DRAM)`) or on an SSD array
//!   (`FLEX(SSD)`, `FLEX(16 PCIe 3.0 SSDs)` via the FPGA-disabled chassis
//!   spec),
//! * [`DeepSpeedUvm`] — DeepSpeed ZeRO-Inference extended with UVM,
//! * [`VllmMultiNode`] — the 2×4×A6000 tensor+pipeline-parallel vLLM
//!   deployment of Fig. 17b,
//! * [`accuracy_comparison`] — the InstAttention lossy-retrieval accuracy
//!   study of Fig. 18c.
//!
//! All graph-based baselines execute on the same simulation substrate as
//! HILOS, so comparisons isolate scheduling and data placement — exactly
//! what the paper varies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deepspeed;
mod error;
mod flexgen;
mod instattention;
mod vllm;

pub use deepspeed::{DeepSpeedUvm, UVM_EFFECTIVE_BW};
pub use error::BaselineError;
pub use flexgen::{
    functional_cpu_attention, FlexGenSystem, KvLocation, CPU_ATTENTION_BW, FABRIC_EFFICIENCY,
    HOST_IO_EFFICIENCY,
};
pub use instattention::{
    accuracy_comparison, AccuracyComparison, DEFAULT_ESTIMATION_NOISE, DEFAULT_KEEP_FRACTION,
};
pub use vllm::VllmMultiNode;
