//! Bit-exactness regression suite.
//!
//! The optimized attention path (LUT decode, shared GQA block decode,
//! flat scratch arena) must reproduce the original two-pass kernel —
//! retained as `attention_kernel_baseline` — **bit for bit**, across GQA shapes, masked padding, and
//! delayed-writeback host tails. Likewise the 65536-entry decode LUT must
//! equal the computed `F16::to_f32` on every bit pattern.

use hilos_accel::{
    attention_kernel, attention_kernel_baseline, attention_kernel_with_scratch, f16_decode_lut,
    host_partial_scores, AttentionInputs, HostTail, KernelScratch, MatrixF32, F16,
};

#[test]
fn lut_decode_equals_computed_to_f32_exhaustive() {
    // All 65536 bit patterns: zeros, subnormals, normals, infinities, and
    // every NaN payload/sign must decode to identical f32 bits.
    let lut = f16_decode_lut();
    for bits in 0u16..=u16::MAX {
        let h = F16::from_bits(bits);
        assert_eq!(
            lut[bits as usize].to_bits(),
            h.to_f32().to_bits(),
            "bits {bits:#06x}: lut {:#010x} vs computed {:#010x}",
            lut[bits as usize].to_bits(),
            h.to_f32().to_bits()
        );
        assert_eq!(h.to_f32_lut().to_bits(), h.to_f32().to_bits(), "bits {bits:#06x}");
    }
}

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

fn bits(m: &MatrixF32) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Asserts that the optimized kernel, through both its thread-local and an
/// explicit scratch arena, reproduces the baseline bit for bit on the
/// given inputs.
fn assert_all_paths_bit_identical(inputs: &AttentionInputs<'_>, what: &str) {
    let golden = bits(&attention_kernel_baseline(inputs).expect(what));
    let fast = bits(&attention_kernel(inputs).expect(what));
    assert_eq!(golden, fast, "{what}: optimized kernel diverged from baseline");
    let mut scratch = KernelScratch::new();
    let explicit = bits(&attention_kernel_with_scratch(inputs, &mut scratch).expect(what));
    assert_eq!(golden, explicit, "{what}: explicit-scratch kernel diverged");
}

#[test]
fn golden_gqa_shapes() {
    // (g, s, d): single query, multi-block, GQA groups, non-power-of-two
    // head dims (OPT-30B's d=112), exact block boundaries, sub-block
    // contexts.
    let shapes = [
        (1usize, 1usize, 8usize),
        (1, 5, 8),
        (1, 127, 64),
        (1, 128, 64),
        (1, 300, 64),
        (2, 256, 16),
        (4, 129, 112),
        (5, 257, 32),
        (8, 1000, 80),
    ];
    for (i, &(g, s, d)) in shapes.iter().enumerate() {
        let (q, k, v) = toy(g, s, d, 100 + i as u64);
        let (qh, kh, vh) = (q.to_f16(), k.to_f16(), v.to_f16());
        let inputs = AttentionInputs {
            queries: &qh,
            keys: &kh,
            values: &vh,
            valid: None,
            scale: 1.0 / (d as f32).sqrt(),
            host_tail: None,
        };
        assert_all_paths_bit_identical(&inputs, &format!("g={g} s={s} d={d}"));
    }
}

#[test]
fn golden_masked_padding() {
    let (q, k, v) = toy(3, 300, 32, 7);
    let (qh, kh, vh) = (q.to_f16(), k.to_f16(), v.to_f16());
    // Padding tails of several lengths, including a fully-masked block
    // and a mask crossing a block boundary.
    for &valid_prefix in &[1usize, 100, 128, 130, 255, 299] {
        let mut valid = vec![true; 300];
        valid[valid_prefix..].fill(false);
        let inputs = AttentionInputs {
            queries: &qh,
            keys: &kh,
            values: &vh,
            valid: Some(&valid),
            scale: 0.2,
            host_tail: None,
        };
        assert_all_paths_bit_identical(&inputs, &format!("valid_prefix={valid_prefix}"));
    }
    // Interior holes (every third token masked).
    let holes: Vec<bool> = (0..300).map(|j| j % 3 != 1).collect();
    let inputs = AttentionInputs {
        queries: &qh,
        keys: &kh,
        values: &vh,
        valid: Some(&holes),
        scale: 0.2,
        host_tail: None,
    };
    assert_all_paths_bit_identical(&inputs, "interior holes");
}

#[test]
fn golden_host_tail() {
    let (q, k, v) = toy(3, 200, 32, 29);
    let (qh, kh, vh) = (q.to_f16(), k.to_f16(), v.to_f16());
    let scale = 1.0 / 32f32.sqrt();
    let kf = kh.to_f32();
    let vf = vh.to_f32();
    // Tail lengths: sub-block, exactly one block, crossing a block.
    for &split in &[199usize, 185, 72, 60] {
        let tail_len = 200 - split;
        let k_stored = MatrixF32::from_fn(split, 32, |r, c| kf.at(r, c)).to_f16();
        let v_stored = MatrixF32::from_fn(split, 32, |r, c| vf.at(r, c)).to_f16();
        let k_tail = MatrixF32::from_fn(tail_len, 32, |r, c| kf.at(split + r, c)).to_f16();
        let v_tail = MatrixF32::from_fn(tail_len, 32, |r, c| vf.at(split + r, c)).to_f16();
        let tail_scores = host_partial_scores(&qh, &k_tail, scale);
        let inputs = AttentionInputs {
            queries: &qh,
            keys: &k_stored,
            values: &v_stored,
            valid: None,
            scale,
            host_tail: Some(HostTail { scores: &tail_scores, values: &v_tail }),
        };
        assert_all_paths_bit_identical(&inputs, &format!("tail_len={tail_len}"));
    }
    // Tail-only context (everything buffered).
    let tail_scores = host_partial_scores(&qh, &kh, scale);
    let empty_k = hilos_accel::MatrixF16::zeros(0, 32);
    let empty_v = hilos_accel::MatrixF16::zeros(0, 32);
    let inputs = AttentionInputs {
        queries: &qh,
        keys: &empty_k,
        values: &empty_v,
        valid: None,
        scale,
        host_tail: Some(HostTail { scores: &tail_scores, values: &vh }),
    };
    assert_all_paths_bit_identical(&inputs, "tail only");
}

#[test]
fn golden_extreme_values() {
    // Saturated FP16 magnitudes, infinities from overflow, signed zeros,
    // and subnormals must flow through both paths identically.
    let d = 16;
    let s = 140;
    let q = MatrixF32::from_fn(2, d, |r, c| if (r + c) % 3 == 0 { 8.0 } else { -0.25 });
    let k = MatrixF32::from_fn(s, d, |r, c| match (r + c) % 5 {
        0 => 65504.0,
        1 => -65504.0,
        2 => f32::powi(2.0, -24),
        3 => -0.0,
        _ => 0.37,
    });
    let v = MatrixF32::from_fn(s, d, |r, c| ((r * 31 + c) % 17) as f32 - 8.0);
    let (qh, kh, vh) = (q.to_f16(), k.to_f16(), v.to_f16());
    let inputs = AttentionInputs {
        queries: &qh,
        keys: &kh,
        values: &vh,
        valid: None,
        scale: 1.0e-3,
        host_tail: None,
    };
    assert_all_paths_bit_identical(&inputs, "extreme values");
}

#[test]
fn golden_parallel_batch() {
    // Five differently-shaped shards run one after another on the same
    // thread: each must return exactly the baseline's bits, whatever the
    // thread-local scratch arena held from the shard before it.
    for i in 0..5 {
        let (q, k, v) = toy(2 + i % 3, 100 + 40 * i, 24, 500 + i as u64);
        let (q, k, v) = (q.to_f16(), k.to_f16(), v.to_f16());
        let inputs = AttentionInputs {
            queries: &q,
            keys: &k,
            values: &v,
            valid: None,
            scale: 0.2,
            host_tail: None,
        };
        let golden = bits(&attention_kernel_baseline(&inputs).unwrap());
        assert_eq!(golden, bits(&attention_kernel(&inputs).unwrap()), "shard {i}");
    }
}
