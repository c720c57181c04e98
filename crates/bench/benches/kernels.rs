//! Criterion benches for the functional compute kernels (Table 3 /
//! Fig. 12a counterparts at functional level).
//!
//! `attention_2k_d64` and `attention_32k_d64` compare the optimized
//! kernel (`hilos_kernel`) with the golden baseline
//! (`hilos_kernel_baseline`) — the speedup the `bench_kernels` smoke
//! binary records in `BENCH_kernels.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use hilos_accel::{
    attention_kernel, attention_kernel_baseline, attention_reference, attention_streaming,
    softmax_three_pass, softmax_two_pass, sparse_topk_attention, AttentionInputs, MatrixF32, F16,
};
use std::hint::black_box;

fn toy(g: usize, s: usize, d: usize) -> (MatrixF32, MatrixF32, MatrixF32) {
    let mut state = 12345u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0
    };
    (
        MatrixF32::from_fn(g, d, |_, _| next()),
        MatrixF32::from_fn(s, d, |_, _| next()),
        MatrixF32::from_fn(s, d, |_, _| next()),
    )
}

fn bench_attention(c: &mut Criterion) {
    let (q, k, v) = toy(1, 2048, 64);
    let (qh, kh, vh) = (q.to_f16(), k.to_f16(), v.to_f16());
    let inputs = AttentionInputs {
        queries: &qh,
        keys: &kh,
        values: &vh,
        valid: None,
        scale: 0.125,
        host_tail: None,
    };
    let mut group = c.benchmark_group("attention_2k_d64");
    group.sample_size(20);
    group.bench_function("hilos_kernel", |b| {
        b.iter(|| attention_kernel(black_box(&inputs)).unwrap())
    });
    group.bench_function("hilos_kernel_baseline", |b| {
        b.iter(|| attention_kernel_baseline(black_box(&inputs)).unwrap())
    });
    group.bench_function("reference_f64", |b| {
        b.iter(|| attention_reference(black_box(&q), black_box(&k), black_box(&v), None, 0.125))
    });
    group.bench_function("flash_streaming", |b| {
        b.iter(|| attention_streaming(black_box(&q), black_box(&k), black_box(&v), None, 0.125))
    });
    group.bench_function("instattention_topk_1_8", |b| {
        b.iter(|| sparse_topk_attention(black_box(&inputs), 0.125, None).unwrap())
    });
    group.finish();
}

fn bench_attention_long_context(c: &mut Criterion) {
    // GQA group of 4 over a 32K-token shard: the shape the near-storage
    // kernel sweeps per decode step at serving scale.
    let (q, k, v) = toy(4, 32 * 1024, 64);
    let (qh, kh, vh) = (q.to_f16(), k.to_f16(), v.to_f16());
    let inputs = AttentionInputs {
        queries: &qh,
        keys: &kh,
        values: &vh,
        valid: None,
        scale: 0.125,
        host_tail: None,
    };
    let mut group = c.benchmark_group("attention_32k_d64");
    group.sample_size(10);
    group.bench_function("hilos_kernel", |b| {
        b.iter(|| attention_kernel(black_box(&inputs)).unwrap())
    });
    group.bench_function("hilos_kernel_baseline", |b| {
        b.iter(|| attention_kernel_baseline(black_box(&inputs)).unwrap())
    });
    group.finish();
}

fn bench_softmax(c: &mut Criterion) {
    let xs: Vec<f32> = (0..32 * 1024).map(|i| ((i * 37) % 1001) as f32 * 0.01 - 5.0).collect();
    let mut group = c.benchmark_group("softmax_32k");
    group.bench_function("two_pass_block128", |b| b.iter(|| softmax_two_pass(black_box(&xs), 128)));
    group.bench_function("three_pass", |b| b.iter(|| softmax_three_pass(black_box(&xs))));
    group.finish();
}

fn bench_f16(c: &mut Criterion) {
    let values: Vec<f32> = (0..4096).map(|i| i as f32 * 0.37 - 700.0).collect();
    c.bench_function("f16_round_trip_4k", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for &v in &values {
                acc += F16::from_f32(black_box(v)).to_f32();
            }
            acc
        })
    });
    let halves: Vec<F16> = values.iter().map(|&v| F16::from_f32(v)).collect();
    c.bench_function("f16_lut_decode_4k", |b| {
        b.iter(|| {
            let lut = hilos_accel::f16_decode_lut();
            let mut acc = 0.0f32;
            for &h in &halves {
                acc += lut[black_box(h).to_bits() as usize];
            }
            acc
        })
    });
}

criterion_group!(benches, bench_attention, bench_attention_long_context, bench_softmax, bench_f16);
criterion_main!(benches);
