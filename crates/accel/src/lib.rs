//! # hilos-accel — the memory-efficient attention accelerator
//!
//! Functional and analytic models of the custom near-storage attention
//! accelerator of HILOS §4.4:
//!
//! * [`F16`] — software IEEE 754 binary16, the device's storage format,
//!   with a lazily-built 65536-entry decode LUT ([`f16_decode_lut`]) for
//!   the hot paths,
//! * [`attention_kernel`] — the bit-faithful functional model: blocked
//!   two-pass softmax (Algorithm 1), online 128×128 K-tile transpose,
//!   native GQA broadcast, −10⁴ padding masks, FP32 accumulation, and the
//!   delayed-writeback host-tail path. The compute path is
//!   zero-allocation in steady state (reusable [`KernelScratch`] arena,
//!   shared per-group block decode), and [`attention_kernel_baseline`]
//!   preserves the original implementation as the golden reference,
//! * [`attention_reference`] / [`attention_streaming`] — gold references
//!   (three-pass softmax in `f64`; FlashAttention-style online softmax),
//! * [`sparse_topk_attention`] — the lossy InstAttention-style retrieval
//!   used for the Fig. 18c accuracy comparison,
//! * [`AccelTimingModel`] — cycle-level timing calibrated to Table 3,
//! * [`ResourceModel`] — KU15P utilization / power / frequency (Table 3),
//! * [`PerformanceEstimator`] — the §5.1 HLS-style estimator with its
//!   Pearson-correlation validation harness.
//!
//! # Example
//!
//! ```
//! use hilos_accel::{attention_kernel, AttentionInputs, MatrixF32};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let q = MatrixF32::from_fn(1, 64, |_, c| (c as f32 * 0.1).sin()).to_f16();
//! let k = MatrixF32::from_fn(256, 64, |r, c| ((r + c) as f32 * 0.01).cos()).to_f16();
//! let v = MatrixF32::from_fn(256, 64, |r, _| r as f32 / 256.0).to_f16();
//! let out = attention_kernel(&AttentionInputs {
//!     queries: &q,
//!     keys: &k,
//!     values: &v,
//!     valid: None,
//!     scale: 0.125,
//!     host_tail: None,
//! })?;
//! assert_eq!(out.rows(), 1);
//! assert_eq!(out.cols(), 64);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod estimator;
mod f16;
mod kernel;
mod reference;
mod resources;
mod softmax;
mod sparse;
mod tensor;
mod timing;

pub use estimator::{estimator_correlation, pearson, PerformanceEstimator};
pub use f16::{f16_decode_lut, F16};
pub use kernel::{
    attention_kernel, attention_kernel_baseline, attention_kernel_with_scratch,
    host_partial_scores, transpose_tile, AttentionInputs, HostTail, KernelError, KernelScratch,
    BLOCK_TOKENS, TILE_DIM,
};
pub use reference::{attention_reference, attention_streaming, attention_streaming_f16};
pub use resources::{FpgaPart, ResourceError, ResourceModel, ResourceReport};
pub use softmax::{
    softmax_three_pass, softmax_two_pass, softmax_two_pass_into, SoftmaxStats, MASK_VALUE,
};
pub use sparse::{sparse_topk_attention, EstimationNoise};
pub use tensor::{MatrixF16, MatrixF32};
pub use timing::AccelTimingModel;
