//! InstAttention-style lossy sparse KV retrieval (§7.1, Fig. 18c).
//!
//! InstAttention meets in-storage resource constraints by retrieving only
//! the top-scoring fraction of the KV cache (default 1/8) per query, using
//! *approximate* score estimation. This module reproduces that scheme so
//! the accuracy experiment can contrast it with HILOS's lossless kernel:
//! exact attention restricted to the estimated top-k tokens, with optional
//! deterministic estimation noise standing in for the quantized score
//! approximation of the real system.

use crate::kernel::{attention_kernel, AttentionInputs, KernelError};
use crate::tensor::{MatrixF16, MatrixF32};

/// Deterministic noise model for the approximate score estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimationNoise {
    /// Standard-deviation-like amplitude added to each estimated score.
    pub amplitude: f32,
    /// Seed of the internal xorshift generator.
    pub seed: u64,
}

fn xorshift(state: &mut u64) -> f32 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    // Uniform in [-1, 1).
    ((*state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0
}

/// Runs lossy sparse attention: estimates scores, keeps the top
/// `keep_fraction` of tokens (per query group, by the max score across the
/// group), and computes exact attention over the kept subset.
///
/// `keep_fraction` is clamped to `(0, 1]`; at 1.0 this degenerates to the
/// exact kernel. The host tail (if any) is always kept — buffered entries
/// are recent and cheap.
///
/// # Errors
///
/// Propagates [`KernelError`] from the underlying kernel.
pub fn sparse_topk_attention(
    inputs: &AttentionInputs<'_>,
    keep_fraction: f64,
    noise: Option<EstimationNoise>,
) -> Result<MatrixF32, KernelError> {
    let keep_fraction = keep_fraction.clamp(1e-9, 1.0);
    let s = inputs.keys.rows();
    let g = inputs.queries.rows();
    let d = inputs.queries.cols();
    if s == 0 {
        return attention_kernel(inputs);
    }

    // --- Score estimation (the lossy part) ---
    // Queries are LUT-decoded once and each key row once (shared across
    // the whole GQA group), instead of re-widening both per element —
    // same arithmetic order, so the estimated scores (and therefore the
    // selection) are bit-identical to the per-element path.
    let mut q_dec = vec![0.0f32; g * d];
    inputs.queries.decode_rows_into(0, g, &mut q_dec);
    let mut k_row = vec![0.0f32; d];
    let mut noise_state = noise.map(|n| (n.seed | 1, n.amplitude));
    let mut est = vec![f32::NEG_INFINITY; s];
    for j in 0..s {
        let masked = inputs.valid.map(|v| !v[j]).unwrap_or(false);
        if masked {
            continue;
        }
        inputs.keys.decode_row_into(j, &mut k_row);
        let mut best = f32::NEG_INFINITY;
        for qi in 0..g {
            let q = &q_dec[qi * d..(qi + 1) * d];
            let dot: f32 = q.iter().zip(&k_row).map(|(&a, &b)| a * b).sum();
            best = best.max(dot * inputs.scale);
        }
        if let Some((state, amp)) = noise_state.as_mut() {
            best += xorshift(state) * *amp;
        }
        est[j] = best;
    }

    // --- Top-k selection ---
    let keep = ((s as f64 * keep_fraction).ceil() as usize).clamp(1, s);
    let mut order: Vec<usize> = (0..s).collect();
    order.sort_by(|&a, &b| est[b].partial_cmp(&est[a]).unwrap_or(std::cmp::Ordering::Equal));
    let mut selected: Vec<usize> = order.into_iter().take(keep).collect();
    selected.sort_unstable();

    // --- Exact attention over the retrieved subset ---
    let mut k_sel = MatrixF16::zeros(0, d);
    let mut v_sel = MatrixF16::zeros(0, d);
    let mut valid_sel = Vec::with_capacity(selected.len());
    for &j in &selected {
        k_sel.push_row(inputs.keys.row(j));
        v_sel.push_row(inputs.values.row(j));
        valid_sel.push(inputs.valid.map(|v| v[j]).unwrap_or(true));
    }
    attention_kernel(&AttentionInputs {
        queries: inputs.queries,
        keys: &k_sel,
        values: &v_sel,
        valid: Some(&valid_sel),
        scale: inputs.scale,
        host_tail: inputs.host_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(g: usize, s: usize, d: usize, seed: u64) -> (MatrixF16, MatrixF16, MatrixF16) {
        let mut state = seed | 1;
        let mut next = move || xorshift(&mut state);
        let q = MatrixF32::from_fn(g, d, |_, _| next()).to_f16();
        let k = MatrixF32::from_fn(s, d, |_, _| next()).to_f16();
        let v = MatrixF32::from_fn(s, d, |_, _| next()).to_f16();
        (q, k, v)
    }

    #[test]
    fn keep_all_matches_exact() {
        let (q, k, v) = toy(2, 100, 16, 3);
        let inputs = AttentionInputs {
            queries: &q,
            keys: &k,
            values: &v,
            valid: None,
            scale: 0.25,
            host_tail: None,
        };
        let exact = attention_kernel(&inputs).unwrap();
        let sparse = sparse_topk_attention(&inputs, 1.0, None).unwrap();
        assert!(exact.max_abs_diff(&sparse) < 1e-6);
    }

    #[test]
    fn lossy_retrieval_deviates_from_exact() {
        let (q, k, v) = toy(1, 512, 32, 9);
        let inputs = AttentionInputs {
            queries: &q,
            keys: &k,
            values: &v,
            valid: None,
            scale: 0.4,
            host_tail: None,
        };
        let exact = attention_kernel(&inputs).unwrap();
        let sparse = sparse_topk_attention(&inputs, 1.0 / 8.0, None).unwrap();
        // With near-uniform scores, dropping 7/8 of the context must move
        // the output measurably.
        assert!(exact.max_abs_diff(&sparse) > 1e-3);
    }

    #[test]
    fn dominant_token_survives_compression() {
        let d = 8;
        let g = 1;
        let s = 256;
        let (q, mut k, v) = toy(g, s, d, 11);
        // Plant a needle aligned with the query at position 77.
        for c in 0..d {
            k.set(77, c, q.at(0, c));
        }
        let inputs = AttentionInputs {
            queries: &q,
            keys: &k,
            values: &v,
            valid: None,
            scale: 4.0, // sharpen: the needle dominates softmax
            host_tail: None,
        };
        let exact = attention_kernel(&inputs).unwrap();
        let sparse = sparse_topk_attention(&inputs, 1.0 / 8.0, None).unwrap();
        assert!(exact.max_abs_diff(&sparse) < 1e-2);
    }

    #[test]
    fn estimation_noise_is_deterministic() {
        let (q, k, v) = toy(1, 256, 16, 13);
        let inputs = AttentionInputs {
            queries: &q,
            keys: &k,
            values: &v,
            valid: None,
            scale: 0.3,
            host_tail: None,
        };
        let n = EstimationNoise { amplitude: 0.5, seed: 42 };
        let a = sparse_topk_attention(&inputs, 0.125, Some(n)).unwrap();
        let b = sparse_topk_attention(&inputs, 0.125, Some(n)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn masked_tokens_never_selected() {
        let (q, k, v) = toy(1, 64, 8, 17);
        let valid: Vec<bool> = (0..64).map(|j| j < 32).collect();
        let inputs = AttentionInputs {
            queries: &q,
            keys: &k,
            values: &v,
            valid: Some(&valid),
            scale: 0.3,
            host_tail: None,
        };
        // keep half: exactly the valid half is eligible.
        let sparse = sparse_topk_attention(&inputs, 0.5, None).unwrap();
        let k32 = {
            let kf = k.to_f32();
            MatrixF32::from_fn(32, 8, |r, c| kf.at(r, c)).to_f16()
        };
        let v32 = {
            let vf = v.to_f32();
            MatrixF32::from_fn(32, 8, |r, c| vf.at(r, c)).to_f16()
        };
        let exact_valid = attention_kernel(&AttentionInputs {
            queries: &q,
            keys: &k32,
            values: &v32,
            valid: None,
            scale: 0.3,
            host_tail: None,
        })
        .unwrap();
        assert!(sparse.max_abs_diff(&exact_valid) < 1e-4);
    }
}
