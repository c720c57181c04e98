//! Functional (bit-level) validation pipeline.
//!
//! The performance model says *when* things happen; this module checks
//! *what* HILOS computes. A small attention block with real weights is
//! evaluated through four code paths that must agree:
//!
//! 1. the plain baseline: project K/V on the GPU and attend with the
//!    reference implementation,
//! 2. **ANS**: K/V stored on the device (FP16 rows) and attended by the
//!    accelerator's functional kernel,
//! 3. **ANS + X-cache**: an α split where the X shard's K/V are
//!    *regenerated* from stored activations `X` and attended on the GPU
//!    while the rest runs on the accelerator,
//! 4. **ANS + delayed writeback**: the newest tokens' K/V live in a host
//!    buffer; the CPU pre-computes their `QKᵀ` scores and the accelerator
//!    merges them.
//!
//! This is the reproduction of the paper's functional-verification flow
//! (§5.1's "C/C++ simulator" integrated with lm-evaluation-harness).

use hilos_accel::{
    attention_kernel, attention_reference, host_partial_scores, AttentionInputs, HostTail,
    KernelError, MatrixF16, MatrixF32,
};

/// A single-head attention block with concrete weights, decoded one query
/// at a time over a stored context.
#[derive(Debug, Clone)]
pub struct FunctionalBlock {
    hidden: usize,
    w_q: MatrixF32,
    w_k: MatrixF32,
    w_v: MatrixF32,
}

fn matmul_row(x: &[f32], w: &MatrixF32) -> Vec<f32> {
    assert_eq!(x.len(), w.rows(), "dimension mismatch");
    let mut out = vec![0.0f32; w.cols()];
    for (i, &xi) in x.iter().enumerate() {
        let row = w.row(i);
        for (o, &wij) in out.iter_mut().zip(row) {
            *o += xi * wij;
        }
    }
    out
}

impl FunctionalBlock {
    /// Creates a block with deterministic pseudo-random weights.
    pub fn new(hidden: usize, seed: u64) -> Self {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0)
                / (hidden as f32).sqrt()
        };
        FunctionalBlock {
            hidden,
            w_q: MatrixF32::from_fn(hidden, hidden, |_, _| next()),
            w_k: MatrixF32::from_fn(hidden, hidden, |_, _| next()),
            w_v: MatrixF32::from_fn(hidden, hidden, |_, _| next()),
        }
    }

    /// Hidden width of the block.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Projects the context `xs` (`s × hidden`) into K/V caches stored in
    /// FP16, exactly as the prefill writes them.
    pub fn project_kv(&self, xs: &MatrixF32) -> (MatrixF16, MatrixF16) {
        let s = xs.rows();
        let mut k = MatrixF32::zeros(s, self.hidden);
        let mut v = MatrixF32::zeros(s, self.hidden);
        for t in 0..s {
            let kr = matmul_row(xs.row(t), &self.w_k);
            let vr = matmul_row(xs.row(t), &self.w_v);
            for c in 0..self.hidden {
                k.set(t, c, kr[c]);
                v.set(t, c, vr[c]);
            }
        }
        (k.to_f16(), v.to_f16())
    }

    /// Projects a query token.
    pub fn project_q(&self, x: &[f32]) -> MatrixF16 {
        let q = matmul_row(x, &self.w_q);
        MatrixF32::from_vec(1, self.hidden, q).to_f16()
    }

    fn scale(&self) -> f32 {
        1.0 / (self.hidden as f32).sqrt()
    }

    /// Path 1 — baseline: `f64` reference attention over the projected
    /// (FP16-rounded) caches.
    pub fn attend_baseline(&self, x_q: &[f32], xs: &MatrixF32) -> MatrixF32 {
        let (k, v) = self.project_kv(xs);
        let q = self.project_q(x_q);
        attention_reference(&q.to_f32(), &k.to_f32(), &v.to_f32(), None, self.scale())
    }

    /// Path 2 — ANS: the device's functional kernel over the same caches.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn attend_ans(&self, x_q: &[f32], xs: &MatrixF32) -> Result<MatrixF32, KernelError> {
        let (k, v) = self.project_kv(xs);
        let q = self.project_q(x_q);
        attention_kernel(&AttentionInputs {
            queries: &q,
            keys: &k,
            values: &v,
            valid: None,
            scale: self.scale(),
            host_tail: None,
        })
    }

    /// Path 3 — ANS + X-cache: tokens `[x_split, s)` are stored as `X`
    /// (FP16) and their K/V regenerated on the GPU; attention merges the
    /// device shard and the GPU shard through the streaming-stats
    /// interface (emulated here by concatenating the regenerated rows as
    /// a host tail).
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn attend_xcache(
        &self,
        x_q: &[f32],
        xs: &MatrixF32,
        x_split: usize,
    ) -> Result<MatrixF32, KernelError> {
        let s = xs.rows();
        assert!(x_split <= s, "split beyond context");
        let q = self.project_q(x_q);
        // Device shard: K/V of the prefix, stored on flash.
        let prefix = MatrixF32::from_fn(x_split, self.hidden, |r, c| xs.at(r, c));
        let (k_dev, v_dev) = self.project_kv(&prefix);
        // X shard: activations stored in FP16 (the X-cache), regenerated.
        let x_rows = MatrixF32::from_fn(s - x_split, self.hidden, |r, c| xs.at(x_split + r, c))
            .to_f16()
            .to_f32();
        let (k_regen, v_regen) = self.project_kv(&x_rows);
        let tail_scores = host_partial_scores(&q, &k_regen, self.scale());
        attention_kernel(&AttentionInputs {
            queries: &q,
            keys: &k_dev,
            values: &v_dev,
            valid: None,
            scale: self.scale(),
            host_tail: Some(HostTail { scores: &tail_scores, values: &v_regen }),
        })
    }

    /// Path 4 — ANS + delayed writeback: the last `buffered` tokens' K/V
    /// live in the host buffer; the CPU computes their partial scores.
    ///
    /// # Errors
    ///
    /// Propagates kernel shape errors.
    pub fn attend_writeback(
        &self,
        x_q: &[f32],
        xs: &MatrixF32,
        buffered: usize,
    ) -> Result<MatrixF32, KernelError> {
        let s = xs.rows();
        assert!(buffered <= s, "buffer larger than context");
        let split = s - buffered;
        let q = self.project_q(x_q);
        let stored = MatrixF32::from_fn(split, self.hidden, |r, c| xs.at(r, c));
        let (k_dev, v_dev) = self.project_kv(&stored);
        let tail = MatrixF32::from_fn(buffered, self.hidden, |r, c| xs.at(split + r, c));
        let (k_buf, v_buf) = self.project_kv(&tail);
        let scores = host_partial_scores(&q, &k_buf, self.scale());
        attention_kernel(&AttentionInputs {
            queries: &q,
            keys: &k_dev,
            values: &v_dev,
            valid: None,
            scale: self.scale(),
            host_tail: Some(HostTail { scores: &scores, values: &v_buf }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn context(s: usize, h: usize, seed: u64) -> MatrixF32 {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0) / (h as f32).sqrt()
        };
        MatrixF32::from_fn(s, h, |_, _| next() * (h as f32).sqrt())
    }

    const TOL: f32 = 3e-4;

    #[test]
    fn ans_matches_baseline() {
        let block = FunctionalBlock::new(32, 5);
        let xs = context(200, 32, 7);
        let xq: Vec<f32> = xs.row(100).to_vec();
        let base = block.attend_baseline(&xq, &xs);
        let ans = block.attend_ans(&xq, &xs).unwrap();
        let diff = base.max_abs_diff(&ans);
        assert!(diff < TOL, "diff={diff}");
    }

    #[test]
    fn xcache_regeneration_is_lossless() {
        // §4.2: regenerating K/V from the stored X must give the same
        // attention output as reading stored K/V (X is stored in the same
        // FP16 the K/V would have been; the projection is deterministic).
        let block = FunctionalBlock::new(32, 11);
        let xs = context(150, 32, 13);
        let xq: Vec<f32> = xs.row(0).to_vec();
        let ans = block.attend_ans(&xq, &xs).unwrap();
        for split in [0usize, 75, 149] {
            let x = block.attend_xcache(&xq, &xs, split).unwrap();
            let diff = ans.max_abs_diff(&x);
            // X is FP16-rounded before regeneration, so allow a slightly
            // wider tolerance than pure path equivalence.
            assert!(diff < 5e-3, "split={split} diff={diff}");
        }
    }

    #[test]
    fn writeback_path_is_exact() {
        // §4.3: buffered entries merged through host partial scores must
        // not change the result at all (same FP16 K/V values).
        let block = FunctionalBlock::new(48, 17);
        let xs = context(100, 48, 19);
        let xq: Vec<f32> = xs.row(99).to_vec();
        let ans = block.attend_ans(&xq, &xs).unwrap();
        for buffered in [1usize, 7, 16, 100] {
            let wb = block.attend_writeback(&xq, &xs, buffered).unwrap();
            let diff = ans.max_abs_diff(&wb);
            assert!(diff < TOL, "buffered={buffered} diff={diff}");
        }
    }

    #[test]
    fn all_paths_agree_end_to_end() {
        let block = FunctionalBlock::new(64, 23);
        let xs = context(257, 64, 29);
        let xq: Vec<f32> = xs.row(256).to_vec();
        let base = block.attend_baseline(&xq, &xs);
        let ans = block.attend_ans(&xq, &xs).unwrap();
        let x = block.attend_xcache(&xq, &xs, 128).unwrap();
        let wb = block.attend_writeback(&xq, &xs, 15).unwrap();
        assert!(base.max_abs_diff(&ans) < TOL);
        assert!(base.max_abs_diff(&x) < 5e-3);
        assert!(base.max_abs_diff(&wb) < TOL);
    }

    #[test]
    fn projections_are_deterministic() {
        let block = FunctionalBlock::new(16, 3);
        let xs = context(10, 16, 4);
        let (k1, v1) = block.project_kv(&xs);
        let (k2, v2) = block.project_kv(&xs);
        assert_eq!(k1, k2);
        assert_eq!(v1, v2);
    }
}
