//! Deterministic fan-out over query groups / KV shards.
//!
//! The build environment cannot fetch `rayon`, so this module provides
//! the small slice of it the workspace needs on top of
//! `std::thread::scope`: a work-stealing indexed map whose **output order
//! is deterministic** regardless of thread scheduling ([`parallel_map`]).
//! Workers pull item indices from a shared atomic counter and send
//! indexed results back; results are re-assembled by index, so the
//! reduction order — and therefore every downstream floating-point
//! aggregation — is identical to the serial order.
//!
//! Parallelism is opt-in: callers pass the worker count explicitly, and
//! `threads <= 1` runs inline with zero thread overhead.

use crate::kernel::{attention_kernel, AttentionInputs, KernelError};
use crate::tensor::MatrixF32;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Maps `f` over `items` on up to `threads` workers, returning results in
/// item order (index `i` of the output is `f(i, &items[i])`).
///
/// `f` runs at most once per item. With `threads <= 1` (or fewer than two
/// items) everything runs inline on the caller's thread. Panics in `f`
/// propagate to the caller when the scope joins.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = threads.min(n);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<U>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, U)>();
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if tx.send((i, f(i, &items[i]))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, result) in rx {
            slots[i] = Some(result);
        }
    });
    slots.into_iter().map(|slot| slot.expect("every index produced a result")).collect()
}

/// Runs the attention kernel over a batch of independent invocations
/// (e.g. the query groups of all heads, or one entry per KV shard) on up
/// to `threads` workers.
///
/// Each worker reuses its own thread-local
/// [`KernelScratch`](crate::KernelScratch), so the fan-out stays
/// allocation-free in steady state, and results come back in input order
/// — output `i` is exactly
/// what `attention_kernel(&batch[i])` returns, bit for bit, regardless of
/// the thread count.
pub fn attention_kernel_batch(
    batch: &[AttentionInputs<'_>],
    threads: usize,
) -> Vec<Result<MatrixF32, KernelError>> {
    parallel_map(batch, threads, |_, inputs| attention_kernel(inputs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::MatrixF32;

    #[test]
    fn preserves_order_and_results() {
        let items: Vec<u64> = (0..100).collect();
        let serial = parallel_map(&items, 1, |i, &x| x * x + i as u64);
        for threads in [2, 4, 16] {
            let parallel = parallel_map(&items, threads, |i, &x| x * x + i as u64);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1u32, 2, 3];
        assert_eq!(parallel_map(&items, 64, |_, &x| x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn kernel_batch_matches_serial_bitwise() {
        let mut state = 77u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0
        };
        let shards: Vec<_> = (0..6)
            .map(|_| {
                let q = MatrixF32::from_fn(2, 16, |_, _| next()).to_f16();
                let k = MatrixF32::from_fn(150, 16, |_, _| next()).to_f16();
                let v = MatrixF32::from_fn(150, 16, |_, _| next()).to_f16();
                (q, k, v)
            })
            .collect();
        let batch: Vec<AttentionInputs<'_>> = shards
            .iter()
            .map(|(q, k, v)| AttentionInputs {
                queries: q,
                keys: k,
                values: v,
                valid: None,
                scale: 0.25,
                host_tail: None,
            })
            .collect();
        let serial = attention_kernel_batch(&batch, 1);
        let parallel = attention_kernel_batch(&batch, 4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            let ab: Vec<u32> = a.as_slice().iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = b.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb);
        }
    }
}
