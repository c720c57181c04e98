//! The functional model of the HILOS attention accelerator (§4.4).
//!
//! The hardware is a temporal (blocked) pipeline of four units processing
//! the context in 128-token blocks:
//!
//! 1. **query-key product unit** — blocked GEMV with an *online transpose*:
//!    a 128×128 tile of the row-major K matrix is loaded into K-Buf,
//!    transposed in place into Kᵀ-Buf and streamed to the MACs, so the Key
//!    matrix never needs a transposed copy in DRAM (Fig. 7d),
//! 2. **softmax statistics aggregation unit** — pass 1 of the two-pass
//!    softmax (Algorithm 1),
//! 3. **softmax normalization unit** — pass 2 (Fig. 7c),
//! 4. **score-value product unit** — blocked GEMV against V (Fig. 7e).
//!
//! GQA is supported natively: the `d_group` queries of a group are
//! processed against a single broadcast K/V stream. The **delayed
//! KV-cache writeback** path (§4.3) enters here as precomputed host-side
//! `QKᵀ` scalars plus buffered V rows ([`HostTail`]), which join the
//! softmax statistics and the score-value product without the new KV
//! entries ever being written to flash.
//!
//! Numerics follow §5.4: storage is FP16, every accumulation and
//! exponential is FP32, and padding tokens are masked to −10⁴.
//!
//! # The zero-allocation hot path (arena + LUT design)
//!
//! The functional kernel has to sweep million-token contexts fast enough
//! to drive serving-scale campaign simulations, so the compute path is
//! built around two ideas:
//!
//! * **Table-driven decode.** All FP16 → FP32 widening goes through the
//!   lazily-built 65536-entry LUT ([`crate::f16_decode_lut`]) via the
//!   batch row-decode helpers on [`MatrixF16`]
//!   ([`decode_rows_into`](MatrixF16::decode_rows_into)), replacing a
//!   branchy bit-twiddling conversion per multiply–accumulate with one
//!   indexed load per stored element.
//! * **A reusable flat scratch arena.** [`KernelScratch`] owns every
//!   intermediate buffer (decoded queries, the decoded 128-token K/V
//!   block, the score arena, softmax statistics, output accumulators) as
//!   flat `Vec<f32>`s that grow once and are reused across calls — the
//!   steady state allocates nothing but the `g × d` output matrix. The
//!   plain [`attention_kernel`] entry point keeps one arena per thread in
//!   a thread-local; [`attention_kernel_with_scratch`] gives callers
//!   explicit control.
//!
//! Each 128-token K/V block is decoded **once per GQA group** and shared
//! by all `g` queries (the baseline re-decoded V rows per query and Q
//! elements per MAC — a `g`-fold and `block_len`-fold reduction in decode
//! work respectively). Floating-point evaluation order is preserved
//! exactly — tile-chunked `QKᵀ` partial sums, token-ascending score-value
//! accumulation — so results are **bit-identical** to the original
//! kernel, which is retained as [`attention_kernel_baseline`] and pinned
//! by the golden suite in `tests/bitexact.rs`.

use crate::softmax::{SoftmaxStats, MASK_VALUE};
use crate::tensor::{MatrixF16, MatrixF32};
use std::cell::RefCell;
use std::error::Error;
use std::fmt;

/// Tokens per hardware block (K/V tile height).
pub const BLOCK_TOKENS: usize = 128;

/// Tile width of the on-chip K buffer (online-transpose granularity).
pub const TILE_DIM: usize = 128;

/// Precomputed host-side contribution for buffered (not-yet-spilled) KV
/// entries — the delayed-writeback fast path.
#[derive(Debug, Clone, Copy)]
pub struct HostTail<'a> {
    /// `g × t` pre-scaled `QKᵀ` scores computed by the host CPU against the
    /// buffered keys.
    pub scores: &'a MatrixF32,
    /// `t × d` buffered value rows, sent from host memory.
    pub values: &'a MatrixF16,
}

/// Inputs of one accelerator invocation: a query group against one KV
/// shard.
#[derive(Debug, Clone, Copy)]
pub struct AttentionInputs<'a> {
    /// `g × d` queries sharing this KV cache (g = `d_group`).
    pub queries: &'a MatrixF16,
    /// `s × d` key rows (row-major, token-major — the SSD layout).
    pub keys: &'a MatrixF16,
    /// `s × d` value rows.
    pub values: &'a MatrixF16,
    /// Optional validity mask (`false` = padding) of length `s`.
    pub valid: Option<&'a [bool]>,
    /// Score scale, usually `1/sqrt(d)`.
    pub scale: f32,
    /// Delayed-writeback tail, if any.
    pub host_tail: Option<HostTail<'a>>,
}

/// Errors from the attention kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum KernelError {
    /// Two inputs disagreed on a dimension.
    ShapeMismatch {
        /// Description of the offending input.
        what: &'static str,
        /// Expected extent.
        expected: usize,
        /// Actual extent.
        actual: usize,
    },
    /// Neither stored context nor host tail supplied any tokens.
    EmptyContext,
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::ShapeMismatch { what, expected, actual } => {
                write!(f, "shape mismatch in {what}: expected {expected}, got {actual}")
            }
            KernelError::EmptyContext => write!(f, "attention over an empty context"),
        }
    }
}

impl Error for KernelError {}

/// Transposes a `rows × cols` tile held row-major in `src` into `dst`
/// (`cols × rows`) — the K-Buf → Kᵀ-Buf online transpose of Fig. 7d.
///
/// # Panics
///
/// Panics if the slices are smaller than `rows * cols`.
pub fn transpose_tile(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert!(src.len() >= rows * cols, "source tile too small");
    assert!(dst.len() >= rows * cols, "destination tile too small");
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

fn validate(inputs: &AttentionInputs<'_>) -> Result<(usize, usize, usize, usize), KernelError> {
    let g = inputs.queries.rows();
    let d = inputs.queries.cols();
    let s = inputs.keys.rows();
    if inputs.keys.cols() != d {
        return Err(KernelError::ShapeMismatch {
            what: "keys.cols",
            expected: d,
            actual: inputs.keys.cols(),
        });
    }
    if inputs.values.rows() != s {
        return Err(KernelError::ShapeMismatch {
            what: "values.rows",
            expected: s,
            actual: inputs.values.rows(),
        });
    }
    if inputs.values.cols() != d {
        return Err(KernelError::ShapeMismatch {
            what: "values.cols",
            expected: d,
            actual: inputs.values.cols(),
        });
    }
    if let Some(v) = inputs.valid {
        if v.len() != s {
            return Err(KernelError::ShapeMismatch {
                what: "valid.len",
                expected: s,
                actual: v.len(),
            });
        }
    }
    let mut tail = 0;
    if let Some(t) = &inputs.host_tail {
        tail = t.values.rows();
        if t.scores.rows() != g {
            return Err(KernelError::ShapeMismatch {
                what: "host_tail.scores.rows",
                expected: g,
                actual: t.scores.rows(),
            });
        }
        if t.scores.cols() != tail {
            return Err(KernelError::ShapeMismatch {
                what: "host_tail.scores.cols",
                expected: tail,
                actual: t.scores.cols(),
            });
        }
        if t.values.cols() != d {
            return Err(KernelError::ShapeMismatch {
                what: "host_tail.values.cols",
                expected: d,
                actual: t.values.cols(),
            });
        }
    }
    if s + tail == 0 {
        return Err(KernelError::EmptyContext);
    }
    Ok((g, d, s, tail))
}

/// Reusable flat scratch arena for the optimized kernel.
///
/// Owns every intermediate buffer [`attention_kernel_with_scratch`] needs, as
/// flat `f32` vectors that grow to the high-water mark and are reused
/// across calls. With a long-lived `KernelScratch` (or through the
/// thread-local arena inside [`attention_kernel`]) the hot path performs
/// no heap allocation beyond the returned output matrix.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// Decoded queries, `g × d`.
    q: Vec<f32>,
    /// Decoded K or V rows of the current 128-token block, `block × d`.
    block: Vec<f32>,
    /// Flat score arena, `g × (s + tail)` — the score tiles the hardware
    /// spills to on-board DRAM between the two passes.
    scores: Vec<f32>,
    /// Softmax statistics, one per query.
    stats: Vec<SoftmaxStats>,
    /// Output accumulators, `g × d`.
    acc: Vec<f32>,
}

impl KernelScratch {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        KernelScratch::default()
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::new());
}

fn ensure(buf: &mut Vec<f32>, n: usize) {
    if buf.len() < n {
        buf.resize(n, 0.0);
    }
}

/// Scores `g` decoded queries against one decoded K block, writing the
/// masked/scaled tile to `out[qi * out_stride + block_start + j]`.
///
/// The `QKᵀ` partial sums are chunked [`TILE_DIM`]-wide along the head
/// dimension — the same floating-point evaluation order as the baseline's
/// K-Buf/KT-Buf pipeline, so scores are bit-identical to
/// [`attention_kernel_baseline`]. (The online transpose itself is a
/// memory-layout device; arithmetic values are unaffected by it.)
#[allow(clippy::too_many_arguments)]
fn score_block(
    q: &[f32],
    g: usize,
    d: usize,
    k_block: &[f32],
    block_len: usize,
    valid: Option<&[bool]>,
    block_start: usize,
    scale: f32,
    out: &mut [f32],
    out_stride: usize,
) {
    for qi in 0..g {
        let qrow = &q[qi * d..(qi + 1) * d];
        let orow = &mut out[qi * out_stride + block_start..][..block_len];
        for (j, sj) in orow.iter_mut().enumerate() {
            let krow = &k_block[j * d..(j + 1) * d];
            let mut score = 0.0f32;
            let mut dt = 0;
            while dt < d {
                let tile_w = TILE_DIM.min(d - dt);
                let mut acc = 0.0f32;
                for i in 0..tile_w {
                    acc += qrow[dt + i] * krow[dt + i];
                }
                score += acc;
                dt += tile_w;
            }
            let masked = valid.map(|v| !v[block_start + j]).unwrap_or(false);
            *sj = if masked { MASK_VALUE } else { score * scale };
        }
    }
}

/// Accumulates the score-value product of one decoded V block into the
/// per-query output accumulators. `scores(qi)` yields the normalized
/// slice of this block's scores for query `qi`.
fn accumulate_block<'a>(
    stats: &[SoftmaxStats],
    scores: impl Fn(usize) -> &'a [f32],
    v_block: &[f32],
    g: usize,
    d: usize,
    acc: &mut [f32],
) {
    for qi in 0..g {
        let stat = stats[qi];
        let srow = scores(qi);
        let arow = &mut acc[qi * d..(qi + 1) * d];
        for (j, &x) in srow.iter().enumerate() {
            let w = stat.normalize(x);
            let vrow = &v_block[j * d..(j + 1) * d];
            for (a, &vv) in arow.iter_mut().zip(vrow) {
                *a += w * vv;
            }
        }
    }
}

fn emit_output(acc: &[f32], g: usize, d: usize) -> MatrixF32 {
    let mut out = MatrixF32::zeros(g, d);
    for qi in 0..g {
        for c in 0..d {
            out.set(qi, c, acc[qi * d + c]);
        }
    }
    out
}

/// Runs the blocked two-pass attention kernel with the given scratch
/// arena — the optimized hot path.
///
/// Each K/V block is LUT-decoded once and shared by all `g` queries of
/// the GQA group; scores live in a flat arena instead of per-block
/// vectors. Results are bit-identical to
/// [`attention_kernel_baseline`].
///
/// # Errors
///
/// Returns [`KernelError`] on shape mismatches or an empty context.
pub fn attention_kernel_with_scratch(
    inputs: &AttentionInputs<'_>,
    scratch: &mut KernelScratch,
) -> Result<MatrixF32, KernelError> {
    let (g, d, s, tail) = validate(inputs)?;
    let total = s + tail;

    ensure(&mut scratch.q, g * d);
    inputs.queries.decode_rows_into(0, g, &mut scratch.q);
    ensure(&mut scratch.block, BLOCK_TOKENS * d);
    ensure(&mut scratch.scores, g * total);
    scratch.stats.clear();
    scratch.stats.resize(g, SoftmaxStats::new());

    // ---- Pass 1: stream K blocks, building scores + softmax statistics.
    let mut block_start = 0;
    while block_start < s {
        let block_len = BLOCK_TOKENS.min(s - block_start);
        inputs.keys.decode_rows_into(block_start, block_len, &mut scratch.block);
        score_block(
            &scratch.q,
            g,
            d,
            &scratch.block,
            block_len,
            inputs.valid,
            block_start,
            inputs.scale,
            &mut scratch.scores,
            total,
        );
        for (qi, stat) in scratch.stats.iter_mut().enumerate() {
            stat.update_block(&scratch.scores[qi * total + block_start..][..block_len]);
        }
        block_start += block_len;
    }

    // Host-tail scores (delayed writeback) join the statistics stream.
    if let Some(t) = &inputs.host_tail {
        for (qi, stat) in scratch.stats.iter_mut().enumerate() {
            let row = t.scores.row(qi);
            for chunk in row.chunks(BLOCK_TOKENS) {
                stat.update_block(chunk);
            }
            scratch.scores[qi * total + s..qi * total + total].copy_from_slice(row);
        }
    }

    // ---- Pass 2: normalize and accumulate the score-value product.
    ensure(&mut scratch.acc, g * d);
    scratch.acc[..g * d].fill(0.0);
    let mut block_start = 0;
    while block_start < s {
        let block_len = BLOCK_TOKENS.min(s - block_start);
        inputs.values.decode_rows_into(block_start, block_len, &mut scratch.block);
        let scores = &scratch.scores;
        accumulate_block(
            &scratch.stats,
            |qi| &scores[qi * total + block_start..][..block_len],
            &scratch.block,
            g,
            d,
            &mut scratch.acc,
        );
        block_start += block_len;
    }
    if let Some(t) = &inputs.host_tail {
        let mut tail_start = 0;
        while tail_start < tail {
            let tail_len = BLOCK_TOKENS.min(tail - tail_start);
            t.values.decode_rows_into(tail_start, tail_len, &mut scratch.block);
            let scores = &scratch.scores;
            accumulate_block(
                &scratch.stats,
                |qi| &scores[qi * total + s + tail_start..][..tail_len],
                &scratch.block,
                g,
                d,
                &mut scratch.acc,
            );
            tail_start += tail_len;
        }
    }
    Ok(emit_output(&scratch.acc, g, d))
}

/// Runs the full blocked two-pass attention kernel.
///
/// Returns the `g × d` attention outputs in FP32 (the device sends them
/// to the host as FP16; use [`MatrixF32::to_f16`] at that boundary).
/// Uses a per-thread [`KernelScratch`], so repeated calls allocate
/// nothing but the output; results are bit-identical to
/// [`attention_kernel_baseline`].
///
/// # Errors
///
/// Returns [`KernelError`] on shape mismatches or an empty context.
pub fn attention_kernel(inputs: &AttentionInputs<'_>) -> Result<MatrixF32, KernelError> {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => attention_kernel_with_scratch(inputs, &mut scratch),
        // Re-entrant call (kernel invoked from inside a kernel): fall
        // back to a fresh arena rather than panicking.
        Err(_) => attention_kernel_with_scratch(inputs, &mut KernelScratch::new()),
    })
}

/// Query-key product unit: scores of `g` queries against one K block,
/// using the online tile transpose. Returns a `g × block_len` score tile
/// (scaled, masked).
fn query_key_unit(
    queries: &MatrixF16,
    keys: &MatrixF16,
    block_start: usize,
    block_len: usize,
    valid: Option<&[bool]>,
    scale: f32,
) -> Vec<Vec<f32>> {
    let g = queries.rows();
    let d = queries.cols();
    let mut scores = vec![vec![0.0f32; block_len]; g];

    // K-Buf / KT-Buf emulation: walk the head dimension in 128-wide tiles.
    let mut k_buf = vec![0.0f32; BLOCK_TOKENS * TILE_DIM];
    let mut kt_buf = vec![0.0f32; BLOCK_TOKENS * TILE_DIM];
    let mut d_tile = 0;
    while d_tile < d {
        let tile_w = TILE_DIM.min(d - d_tile);
        // Load the 128 × tile_w K tile row-major (the SSD/DRAM layout).
        for r in 0..block_len {
            let krow = keys.row(block_start + r);
            for c in 0..tile_w {
                k_buf[r * tile_w + c] = krow[d_tile + c].to_f32();
            }
        }
        // Online transpose into KT-Buf.
        transpose_tile(&k_buf[..block_len * tile_w], block_len, tile_w, &mut kt_buf);
        // Blocked GEMV: each query's tile-partial dot products, FP32 MACs.
        for (qi, srow) in scores.iter_mut().enumerate() {
            let q = queries.row(qi);
            for (j, sj) in srow.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for i in 0..tile_w {
                    // KT-Buf is tile_w × block_len after the transpose.
                    acc += q[d_tile + i].to_f32() * kt_buf[i * block_len + j];
                }
                *sj += acc;
            }
        }
        d_tile += tile_w;
    }

    // Scale and mask (the MASK stage of Fig. 7b).
    for srow in scores.iter_mut() {
        for (j, sj) in srow.iter_mut().enumerate() {
            let masked = valid.map(|v| !v[block_start + j]).unwrap_or(false);
            *sj = if masked { MASK_VALUE } else { *sj * scale };
        }
    }
    scores
}

/// The original (pre-optimization) two-pass kernel, kept as the golden
/// baseline: per-element `F16::to_f32` bit-twiddling, per-block
/// `Vec<Vec<f32>>` score tiles, and per-query V decode.
///
/// [`attention_kernel`] is bit-identical to this function (asserted
/// exhaustively by `tests/bitexact.rs`); the criterion benches and the
/// `bench_kernels` smoke binary measure its speedup against it.
///
/// # Errors
///
/// Returns [`KernelError`] on shape mismatches or an empty context.
pub fn attention_kernel_baseline(inputs: &AttentionInputs<'_>) -> Result<MatrixF32, KernelError> {
    let (g, d, s, tail) = validate(inputs)?;

    // ---- Pass 1: stream blocks, building scores + softmax statistics ----
    // (In hardware the score tiles spill to the on-board DRAM; functionally
    // we keep them in a Vec.)
    let mut all_scores: Vec<Vec<f32>> = vec![Vec::with_capacity(s + tail); g];
    let mut stats: Vec<SoftmaxStats> = vec![SoftmaxStats::new(); g];

    let mut block_start = 0;
    while block_start < s {
        let block_len = BLOCK_TOKENS.min(s - block_start);
        let tile = query_key_unit(
            inputs.queries,
            inputs.keys,
            block_start,
            block_len,
            inputs.valid,
            inputs.scale,
        );
        for qi in 0..g {
            stats[qi].update_block(&tile[qi]);
            all_scores[qi].extend_from_slice(&tile[qi]);
        }
        block_start += block_len;
    }

    // Host-tail scores (delayed writeback): pre-scaled scalars from the
    // CPU join the statistics stream as extra blocks.
    if let Some(t) = &inputs.host_tail {
        for qi in 0..g {
            let row = t.scores.row(qi);
            for chunk in row.chunks(BLOCK_TOKENS) {
                stats[qi].update_block(chunk);
            }
            all_scores[qi].extend_from_slice(row);
        }
    }

    // ---- Pass 2: normalize and accumulate the score-value product ----
    let mut out = MatrixF32::zeros(g, d);
    for qi in 0..g {
        let stat = stats[qi];
        let scores = &all_scores[qi];
        let mut acc = vec![0.0f32; d];
        // Stored context blocks.
        for (j, &x) in scores[..s].iter().enumerate() {
            let w = stat.normalize(x);
            let v = inputs.values.row(j);
            for (a, &vv) in acc.iter_mut().zip(v) {
                *a += w * vv.to_f32();
            }
        }
        // Buffered tail from host memory.
        if let Some(t) = &inputs.host_tail {
            for (j, &x) in scores[s..].iter().enumerate() {
                let w = stat.normalize(x);
                let v = t.values.row(j);
                for (a, &vv) in acc.iter_mut().zip(v) {
                    *a += w * vv.to_f32();
                }
            }
        }
        for (c, &a) in acc.iter().enumerate() {
            out.set(qi, c, a);
        }
    }
    Ok(out)
}

/// Computes the host-side partial `QKᵀ` scores for buffered keys — the CPU
/// half of the delayed-writeback protocol (step 2 of Fig. 6b). Scores are
/// pre-scaled so the accelerator can use them directly.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn host_partial_scores(
    queries: &MatrixF16,
    buffered_keys: &MatrixF16,
    scale: f32,
) -> MatrixF32 {
    let g = queries.rows();
    let d = queries.cols();
    let t = buffered_keys.rows();
    assert_eq!(buffered_keys.cols(), d, "buffered key dim mismatch");
    let lut = crate::f16::f16_decode_lut();
    MatrixF32::from_fn(g, t, |qi, j| {
        let q = queries.row(qi);
        let k = buffered_keys.row(j);
        let dot: f32 = q
            .iter()
            .zip(k)
            .map(|(&a, &b)| lut[a.to_bits() as usize] * lut[b.to_bits() as usize])
            .sum();
        dot * scale
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::attention_reference;

    fn toy(g: usize, s: usize, d: usize, seed: u64) -> (MatrixF32, MatrixF32, MatrixF32) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0
        };
        let q = MatrixF32::from_fn(g, d, |_, _| next());
        let k = MatrixF32::from_fn(s, d, |_, _| next());
        let v = MatrixF32::from_fn(s, d, |_, _| next());
        (q, k, v)
    }

    /// Runs the kernel on f16-rounded inputs and the reference on the same
    /// (rounded) values, asserting closeness.
    fn check_against_reference(g: usize, s: usize, d: usize, seed: u64, tol: f32) {
        let (q, k, v) = toy(g, s, d, seed);
        let (qh, kh, vh) = (q.to_f16(), k.to_f16(), v.to_f16());
        let scale = 1.0 / (d as f32).sqrt();
        let out = attention_kernel(&AttentionInputs {
            queries: &qh,
            keys: &kh,
            values: &vh,
            valid: None,
            scale,
            host_tail: None,
        })
        .unwrap();
        let reference = attention_reference(&qh.to_f32(), &kh.to_f32(), &vh.to_f32(), None, scale);
        let diff = out.max_abs_diff(&reference);
        assert!(diff < tol, "g={g} s={s} d={d}: diff {diff}");
    }

    #[test]
    fn matches_reference_small() {
        check_against_reference(1, 5, 8, 3, 1e-5);
    }

    #[test]
    fn matches_reference_multi_block() {
        // Crosses several 128-token block boundaries.
        check_against_reference(1, 300, 64, 7, 1e-4);
    }

    #[test]
    fn matches_reference_gqa_group() {
        check_against_reference(5, 257, 32, 11, 1e-4);
    }

    #[test]
    fn matches_reference_non_pow2_head_dim() {
        // OPT-30B head_dim = 112: exercises partial d tiles.
        check_against_reference(1, 140, 112, 13, 1e-4);
    }

    #[test]
    fn exact_block_boundary() {
        check_against_reference(2, 256, 16, 17, 1e-4);
    }

    fn bits(m: &MatrixF32) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn optimized_matches_baseline_bitwise() {
        let (q, k, v) = toy(3, 300, 48, 41);
        let (qh, kh, vh) = (q.to_f16(), k.to_f16(), v.to_f16());
        let inputs = AttentionInputs {
            queries: &qh,
            keys: &kh,
            values: &vh,
            valid: None,
            scale: 1.0 / 48f32.sqrt(),
            host_tail: None,
        };
        let base = attention_kernel_baseline(&inputs).unwrap();
        let fast = attention_kernel(&inputs).unwrap();
        assert_eq!(bits(&base), bits(&fast), "optimized kernel diverged");
    }

    #[test]
    fn scratch_reuse_across_shapes_is_clean() {
        // A large call followed by a smaller one must not see stale arena
        // contents.
        let mut scratch = KernelScratch::new();
        let (q1, k1, v1) = toy(4, 300, 64, 43);
        let (qh1, kh1, vh1) = (q1.to_f16(), k1.to_f16(), v1.to_f16());
        let big = AttentionInputs {
            queries: &qh1,
            keys: &kh1,
            values: &vh1,
            valid: None,
            scale: 0.125,
            host_tail: None,
        };
        attention_kernel_with_scratch(&big, &mut scratch).unwrap();

        let (q2, k2, v2) = toy(2, 30, 16, 47);
        let (qh2, kh2, vh2) = (q2.to_f16(), k2.to_f16(), v2.to_f16());
        let small = AttentionInputs {
            queries: &qh2,
            keys: &kh2,
            values: &vh2,
            valid: None,
            scale: 0.25,
            host_tail: None,
        };
        let reused = attention_kernel_with_scratch(&small, &mut scratch).unwrap();
        let fresh = attention_kernel_baseline(&small).unwrap();
        assert_eq!(bits(&reused), bits(&fresh));
    }

    #[test]
    fn transpose_tile_round_trip() {
        let rows = 3;
        let cols = 5;
        let src: Vec<f32> = (0..15).map(|i| i as f32).collect();
        let mut t = vec![0.0; 15];
        let mut back = vec![0.0; 15];
        transpose_tile(&src, rows, cols, &mut t);
        assert_eq!(t[0], 0.0);
        assert_eq!(t[1], 5.0); // (0,1) of transposed = (1,0) of src
        transpose_tile(&t, cols, rows, &mut back);
        assert_eq!(src, back);
    }

    #[test]
    fn mask_matches_truncated_context() {
        let (q, k, v) = toy(2, 200, 16, 23);
        let (qh, kh, vh) = (q.to_f16(), k.to_f16(), v.to_f16());
        let scale = 0.25;
        let mut valid = vec![true; 200];
        for item in valid.iter_mut().skip(130) {
            *item = false;
        }
        let masked = attention_kernel(&AttentionInputs {
            queries: &qh,
            keys: &kh,
            values: &vh,
            valid: Some(&valid),
            scale,
            host_tail: None,
        })
        .unwrap();
        let kh_t = {
            let kf = kh.to_f32();
            MatrixF32::from_fn(130, 16, |r, c| kf.at(r, c)).to_f16()
        };
        let vh_t = {
            let vf = vh.to_f32();
            MatrixF32::from_fn(130, 16, |r, c| vf.at(r, c)).to_f16()
        };
        let truncated = attention_kernel(&AttentionInputs {
            queries: &qh,
            keys: &kh_t,
            values: &vh_t,
            valid: None,
            scale,
            host_tail: None,
        })
        .unwrap();
        assert!(masked.max_abs_diff(&truncated) < 1e-4);
    }

    #[test]
    fn host_tail_equals_full_context() {
        // Splitting the context into [stored | buffered-tail] must give the
        // same answer as attending over everything from storage — the §4.3
        // correctness requirement.
        let (q, k, v) = toy(3, 200, 32, 29);
        let (qh, kh, vh) = (q.to_f16(), k.to_f16(), v.to_f16());
        let scale = 1.0 / (32f32).sqrt();

        let full = attention_kernel(&AttentionInputs {
            queries: &qh,
            keys: &kh,
            values: &vh,
            valid: None,
            scale,
            host_tail: None,
        })
        .unwrap();

        // Stored prefix = 185 tokens, buffered tail = 15 tokens.
        let split = 185;
        let kf = kh.to_f32();
        let vf = vh.to_f32();
        let k_stored = MatrixF32::from_fn(split, 32, |r, c| kf.at(r, c)).to_f16();
        let v_stored = MatrixF32::from_fn(split, 32, |r, c| vf.at(r, c)).to_f16();
        let k_tail = MatrixF32::from_fn(200 - split, 32, |r, c| kf.at(split + r, c)).to_f16();
        let v_tail = MatrixF32::from_fn(200 - split, 32, |r, c| vf.at(split + r, c)).to_f16();

        let tail_scores = host_partial_scores(&qh, &k_tail, scale);
        let with_tail = attention_kernel(&AttentionInputs {
            queries: &qh,
            keys: &k_stored,
            values: &v_stored,
            valid: None,
            scale,
            host_tail: Some(HostTail { scores: &tail_scores, values: &v_tail }),
        })
        .unwrap();

        let diff = full.max_abs_diff(&with_tail);
        assert!(diff < 1e-4, "delayed writeback changed the result: {diff}");
    }

    #[test]
    fn tail_only_context_works() {
        // Right after prefill-less decode every KV entry may be buffered.
        let (q, k, v) = toy(1, 10, 8, 31);
        let (qh, kh, vh) = (q.to_f16(), k.to_f16(), v.to_f16());
        let scale = 0.35;
        let empty_k = MatrixF16::zeros(0, 8);
        let empty_v = MatrixF16::zeros(0, 8);
        let tail_scores = host_partial_scores(&qh, &kh, scale);
        let out = attention_kernel(&AttentionInputs {
            queries: &qh,
            keys: &empty_k,
            values: &empty_v,
            valid: None,
            scale,
            host_tail: Some(HostTail { scores: &tail_scores, values: &vh }),
        })
        .unwrap();
        let reference = attention_reference(&qh.to_f32(), &kh.to_f32(), &vh.to_f32(), None, scale);
        assert!(out.max_abs_diff(&reference) < 1e-5);
    }

    #[test]
    fn shape_errors_are_reported() {
        let q = MatrixF16::zeros(1, 8);
        let k = MatrixF16::zeros(4, 8);
        let v_bad = MatrixF16::zeros(3, 8);
        let err = attention_kernel(&AttentionInputs {
            queries: &q,
            keys: &k,
            values: &v_bad,
            valid: None,
            scale: 1.0,
            host_tail: None,
        })
        .unwrap_err();
        assert!(matches!(err, KernelError::ShapeMismatch { what: "values.rows", .. }));

        let empty_k = MatrixF16::zeros(0, 8);
        let empty_v = MatrixF16::zeros(0, 8);
        let err = attention_kernel(&AttentionInputs {
            queries: &q,
            keys: &empty_k,
            values: &empty_v,
            valid: None,
            scale: 1.0,
            host_tail: None,
        })
        .unwrap_err();
        assert_eq!(err, KernelError::EmptyContext);
    }

    #[test]
    fn bad_mask_length_rejected() {
        let q = MatrixF16::zeros(1, 4);
        let k = MatrixF16::zeros(4, 4);
        let v = MatrixF16::zeros(4, 4);
        let valid = vec![true; 3];
        let err = attention_kernel(&AttentionInputs {
            queries: &q,
            keys: &k,
            values: &v,
            valid: Some(&valid),
            scale: 1.0,
            host_tail: None,
        })
        .unwrap_err();
        assert!(matches!(err, KernelError::ShapeMismatch { what: "valid.len", .. }));
    }
}
