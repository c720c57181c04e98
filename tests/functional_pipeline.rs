//! Cross-crate functional integration: the umbrella crate's numerics
//! paths and schedule tooling working together.

use hilos::accel::MatrixF32;
use hilos::core::FunctionalBlock;
use hilos_bench::experiments;

fn context(s: usize, h: usize, seed: u64) -> MatrixF32 {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0
    };
    MatrixF32::from_fn(s, h, |_, _| next())
}

/// A decode "session": grow the context token by token through the
/// writeback path and check every step against the baseline.
#[test]
fn incremental_decode_session_stays_exact() {
    let block = FunctionalBlock::new(32, 77);
    let xs = context(64, 32, 5);
    for step in 8..16 {
        let prefix = MatrixF32::from_fn(step, 32, |r, c| xs.at(r, c));
        let xq: Vec<f32> = xs.row(step).to_vec();
        let base = block.attend_baseline(&xq, &prefix);
        // Buffered tail of up to 7 tokens, as between spills.
        let wb = block.attend_writeback(&xq, &prefix, step % 8).unwrap();
        assert!(base.max_abs_diff(&wb) < 3e-4, "step {step}");
    }
}

/// The schedule experiment renders the Fig. 4(a) stages and a critical
/// path through the executed graph.
#[test]
fn schedule_gantt_is_renderable() {
    let s = experiments::run("schedule").expect("schedule experiment");
    assert!(s.contains("critical path:"));
    assert!(s.contains("loadkv:"));
}
