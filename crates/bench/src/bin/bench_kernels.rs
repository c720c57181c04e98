//! `bench_kernels` — the CI perf-trajectory smoke bench.
//!
//! Times the golden baseline kernel (`attention_kernel_baseline`) against
//! the optimized kernel (`attention_kernel_with_scratch`, bit-identical to
//! it) at context lengths 2K / 32K / 128K and writes `BENCH_kernels.json`
//! (current directory, or the path given as the first argument) so
//! successive changes accumulate a comparable throughput record. Runs in
//! seconds, not minutes: iteration counts shrink as the context grows.
//!
//! ```text
//! Usage: bench_kernels [output.json]
//! ```

use hilos_accel::{
    attention_kernel_baseline, attention_kernel_with_scratch, AttentionInputs, KernelScratch,
    MatrixF32,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Head dimension of every measurement (the paper's common d=64).
const HEAD_DIM: usize = 64;
/// GQA group size (d_group=4, the Table 3 mid configuration).
const GROUP: usize = 4;
/// Measured context lengths.
const CONTEXTS: [usize; 3] = [2 * 1024, 32 * 1024, 128 * 1024];

fn toy(g: usize, s: usize, d: usize) -> (MatrixF32, MatrixF32, MatrixF32) {
    let mut state = 987654321u64;
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

/// Times `f` over `reps` batches of `iters` calls and returns the best
/// batch as (seconds-per-call, tokens-per-second), where a "token" is
/// one context position swept by the kernel call. Best-of-batches keeps
/// the record stable under background load on shared CI runners.
fn time_kernel(mut f: impl FnMut(), iters: usize, reps: usize, context: usize) -> (f64, f64) {
    // One warmup call (fills scratch arenas / decode LUT / caches).
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    (best, context as f64 / best)
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let mut rows = String::new();
    let mut speedups = String::new();

    for (ci, &s) in CONTEXTS.iter().enumerate() {
        let (q, k, v) = toy(GROUP, s, HEAD_DIM);
        let (qh, kh, vh) = (q.to_f16(), k.to_f16(), v.to_f16());
        let inputs = AttentionInputs {
            queries: &qh,
            keys: &kh,
            values: &vh,
            valid: None,
            scale: 0.125,
            host_tail: None,
        };
        // Keep total runtime bounded: the baseline at 128K is slow.
        let (iters, reps) = match s {
            0..=4096 => (20, 5),
            4097..=65536 => (3, 3),
            _ => (1, 3),
        };

        let (base_s, base_tps) =
            time_kernel(|| drop(attention_kernel_baseline(&inputs).unwrap()), iters, reps, s);
        let mut scratch = KernelScratch::new();
        let (opt_s, opt_tps) = time_kernel(
            || drop(attention_kernel_with_scratch(&inputs, &mut scratch).unwrap()),
            iters,
            reps,
            s,
        );

        let speedup = base_s / opt_s;
        eprintln!(
            "s={s:>6}: baseline {base_s:.6}s/call, optimized {opt_s:.6}s/call ({speedup:.2}x)"
        );

        for (kernel, secs, tps) in [("baseline", base_s, base_tps), ("optimized", opt_s, opt_tps)] {
            let _ = write!(
                rows,
                "\n    {{\"context\": {s}, \"head_dim\": {HEAD_DIM}, \"group\": {GROUP}, \
                 \"kernel\": \"{kernel}\", \"seconds_per_call\": {secs:.9}, \
                 \"context_tokens_per_second\": {tps:.1}}},"
            );
        }
        let sep = if ci + 1 < CONTEXTS.len() { "," } else { "" };
        let _ = write!(
            speedups,
            "\n    {{\"context\": {s}, \"optimized_vs_baseline\": {speedup:.3}}}{sep}"
        );
    }
    rows.pop(); // trailing comma

    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"note\": \"throughput of the golden baseline vs the \
         optimized (LUT + arena + shared GQA decode) attention kernel, bit-identical to it; \
         g={GROUP}, d={HEAD_DIM}\",\n  \"results\": [{rows}\n  ],\n  \"speedup\": [{speedups}\n  ]\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write BENCH_kernels.json");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
