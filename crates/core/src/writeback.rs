//! Delayed KV-cache writeback (§4.3).
//!
//! New per-step KV vectors are tiny (256 B per head) against the 4 KiB
//! flash page, so writing them through immediately amplifies writes by
//! 16× *and* puts a flash program on the critical path. The host buffers
//! them, lets the CPU pre-compute the partial `QKᵀ` scores for the
//! buffered tail, and spills page-sized chunks every `c` steps, off the
//! critical path. The buffer is a pure function of the decode step count
//! ([`decision_at`]).
//!
//! A simulated decode step sees the buffer only through the few tail
//! tokens the host scores instead of the SSD reading them, so the
//! simulator solves at most three steps per operating point, not `c`:
//! the middle of the non-spill phases (two middles when there is an even
//! number of them) and the spill ([`simulated_decision`]).

use crate::config::HilosConfig;
use crate::runner::HilosSystem;
use hilos_llm::ModelConfig;

/// The writeback decision of one decoding step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillDecision {
    /// Tokens per sequence buffered in host memory *before* this step's
    /// new token is appended (the tail the CPU pre-computes scores for).
    pub buffered_tokens: u32,
    /// Whether the buffer spills to flash at the end of this step.
    pub spill_now: bool,
    /// Tokens per sequence spilled if `spill_now` (including this step's).
    pub spill_tokens: u32,
}

impl SpillDecision {
    /// Every step's decision with delayed writeback off: nothing is
    /// buffered and nothing spills.
    pub const NONE: SpillDecision =
        SpillDecision { buffered_tokens: 0, spill_now: false, spill_tokens: 0 };
}

/// The writeback decision of decode step `step` (0-based) of a run under
/// `config`: `step % c` tokens are buffered before it, and the buffer
/// spills all `c` tokens at the end of every step with
/// `step % c == c − 1`. With delayed writeback off every step is
/// [`SpillDecision::NONE`].
///
/// # Examples
///
/// ```
/// use hilos_core::{decision_at, HilosConfig};
///
/// let config = HilosConfig::new(8).with_spill_interval(4);
/// let spills = (0..8).filter(|&s| decision_at(&config, s).spill_now).count();
/// assert_eq!(spills, 2);
/// assert_eq!(decision_at(&config, 6).buffered_tokens, 2);
/// ```
pub fn decision_at(config: &HilosConfig, step: u64) -> SpillDecision {
    if !config.delayed_writeback() {
        return SpillDecision::NONE;
    }
    let c = config.spill_interval();
    let buffered_tokens = (step % c as u64) as u32;
    let spill_now = buffered_tokens == c - 1;
    SpillDecision { buffered_tokens, spill_now, spill_tokens: if spill_now { c } else { 0 } }
}

/// The index that solves step `i` of `n` like steps: their middle one,
/// `n/2`, when `n` is odd; when `n` is even, the lower middle
/// `n/2 − 1` for the lower half and the upper middle `n/2` for the
/// upper half. Either way the solved indices sum to the steps' own, so a
/// quantity linear in the index sums exactly.
pub(crate) fn middle_of(n: u64, i: u64) -> u64 {
    if n.is_multiple_of(2) && i < n / 2 {
        n / 2 - 1
    } else {
        n / 2
    }
}

/// The decision a decode step is simulated at, for a step that takes
/// `decision` under `config`'s writeback settings.
///
/// The `c − 1` non-spill phases of a cycle differ only in how many
/// buffered tail tokens (`0..=c − 2`) the host scores instead of the SSD
/// reading them, which moves a step's seconds by a few parts in 10⁴ at
/// long contexts. Each is simulated at the middle phase's buffer:
/// `(c − 2)/2` for an even `c`; for an odd `c`, whose phases have two
/// middles, the lower half of the phases at `(c − 3)/2` and the upper
/// half at `(c − 1)/2`, so the solved buffers sum to the phases' own. The spill
/// step, and the constant [`SpillDecision::NONE`] with delayed writeback
/// off, pass through unchanged.
///
/// # Examples
///
/// ```
/// use hilos_core::{decision_at, simulated_decision, HilosConfig, SpillDecision};
///
/// let config = HilosConfig::new(8); // c = 16
/// let solved: Vec<SpillDecision> =
///     (0..16).map(|s| simulated_decision(&config, decision_at(&config, s))).collect();
/// assert!(solved[..15].iter().all(|d| d.buffered_tokens == 7 && !d.spill_now));
/// assert_eq!(solved[15], SpillDecision { buffered_tokens: 15, spill_now: true, spill_tokens: 16 });
/// ```
pub fn simulated_decision(config: &HilosConfig, decision: SpillDecision) -> SpillDecision {
    if !config.delayed_writeback() || decision.spill_now {
        return decision;
    }
    let phases = config.spill_interval() as u64 - 1;
    SpillDecision {
        buffered_tokens: middle_of(phases, decision.buffered_tokens as u64) as u32,
        spill_now: false,
        spill_tokens: 0,
    }
}

/// Host-memory bytes the writeback buffer occupies for a whole batch
/// right before a spill (all layers): `c · batch · kv_bytes_per_token`.
pub fn peak_buffer_bytes(spill_interval: u32, model: &ModelConfig, batch: u32) -> u64 {
    spill_interval as u64 * batch as u64 * model.kv_bytes_per_token()
}

/// CPU FLOPs to pre-compute the partial `QKᵀ` scores for `buffered`
/// tail tokens: every query head dots its query against each buffered
/// key (2 FLOPs/MAC), for the whole batch and all layers.
pub fn partial_score_flops(model: &ModelConfig, batch: u32, buffered: u32) -> f64 {
    2.0 * model.layers() as f64
        * batch as f64
        * model.heads() as f64
        * model.head_dim() as f64
        * buffered as f64
}

/// NAND bytes programmed per spilled step-token for one sequence across
/// all layers, under the given page size: page-aligned buffered spills
/// program `ceil(c·kv/page)·page / c` per token versus a full page per
/// 256-byte entry for the naive path.
pub fn spill_nand_bytes_per_token(model: &ModelConfig, spill_interval: u32, page: u64) -> f64 {
    let per_head_entry = 2 * model.head_dim() as u64 * 2; // K+V fp16
    let heads = model.kv_heads() as u64 * model.layers() as u64;
    let chunk = per_head_entry * spill_interval as u64;
    let pages_per_chunk = chunk.div_ceil(page);
    heads as f64 * pages_per_chunk as f64 * page as f64 / spill_interval as f64
}

/// NAND bytes `system` programs for `tokens` decoded step-tokens: the
/// spill rate at interval `c` (1 without delayed writeback), discounted
/// by the X-cache share `1 − α(1 − x_to_kv_ratio)`, whose tokens write X.
pub(crate) fn decode_nand_write_bytes(system: &HilosSystem, alpha: f64, tokens: u64) -> f64 {
    let (config, model) = (system.config(), system.model());
    let interval = if config.delayed_writeback() { config.spill_interval() } else { 1 };
    let page = system.spec().storage.ssd_spec().page_bytes();
    let x_discount = 1.0 - alpha * (1.0 - model.x_to_kv_ratio());
    spill_nand_bytes_per_token(model, interval, page) * tokens as f64 * x_discount
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilos_llm::presets;

    fn config(c: u32) -> HilosConfig {
        HilosConfig::new(8).with_spill_interval(c)
    }

    #[test]
    fn simulated_decisions_take_two_values_per_cycle() {
        // Two values for an even c (the middle phase and the spill),
        // three for an odd one (the two middle phases and the spill).
        for c in [1, 2, 3, 11, 16, 32] {
            let config = config(c);
            for step in 0..2 * c as u64 {
                let d = decision_at(&config, step);
                let s = simulated_decision(&config, d);
                let want = if d.spill_now {
                    d.buffered_tokens
                } else if c % 2 == 0 {
                    (c - 2) / 2
                } else if d.buffered_tokens < (c - 1) / 2 {
                    (c - 3) / 2
                } else {
                    (c - 1) / 2
                };
                assert_eq!(s, SpillDecision { buffered_tokens: want, ..d }, "c={c} step={step}");
            }
            let phases: Vec<u32> = (0..c as u64 - 1)
                .map(|s| simulated_decision(&config, decision_at(&config, s)).buffered_tokens)
                .collect();
            assert_eq!(
                phases.iter().sum::<u32>(),
                (0..c.saturating_sub(1)).sum::<u32>(),
                "c={c}: the solved buffers sum to the phases' own"
            );
            let off = config.with_writeback(false);
            assert_eq!(decision_at(&off, c as u64 - 1), SpillDecision::NONE);
            assert_eq!(simulated_decision(&off, SpillDecision::NONE), SpillDecision::NONE);
        }
    }

    #[test]
    fn spills_every_c_steps() {
        let config = config(16);
        let spill_steps: Vec<u64> =
            (0..64).filter(|&s| decision_at(&config, s).spill_now).collect();
        assert_eq!(spill_steps, vec![15, 31, 47, 63]);
        assert!(spill_steps.iter().all(|&s| decision_at(&config, s).spill_tokens == 16));
        assert_eq!(decision_at(&config, 64).buffered_tokens, 0);
    }

    #[test]
    fn buffered_tail_grows_between_spills() {
        let config = config(4);
        let buffered: Vec<u32> = (0..5).map(|s| decision_at(&config, s).buffered_tokens).collect();
        assert_eq!(buffered, vec![0, 1, 2, 3, 0]);
        assert!(decision_at(&config, 3).spill_now);
    }

    #[test]
    fn interval_one_degenerates_to_write_through() {
        let config = config(1);
        for step in 0..5 {
            let d = decision_at(&config, step);
            assert!(d.spill_now);
            assert_eq!(d.buffered_tokens, 0);
            assert_eq!(d.spill_tokens, 1);
        }
    }

    #[test]
    fn spill_interval_16_fills_pages_exactly() {
        // §4.3: 256 B per head entry x c=16 = 4 KiB = one page: no
        // amplification. K+V = 512 B x 16 = two pages, still aligned.
        let m = presets::opt_66b();
        let per_token = spill_nand_bytes_per_token(&m, 16, 4096);
        let payload = m.kv_bytes_per_token() as f64;
        assert!((per_token / payload - 1.0).abs() < 1e-9, "waf={}", per_token / payload);
        // Naive write-through (c=1): each 512 B K+V entry burns a page.
        let naive = spill_nand_bytes_per_token(&m, 1, 4096);
        assert!((naive / payload - 8.0).abs() < 1e-9, "waf={}", naive / payload);
    }

    #[test]
    fn larger_pages_need_larger_intervals() {
        // §7.3: 16 KiB pages push the no-amplification point from c=16
        // out to c=32 (K+V: 512 B x 32 = 16 KiB exactly).
        let m = presets::opt_66b();
        let payload = m.kv_bytes_per_token() as f64;
        let c16 = spill_nand_bytes_per_token(&m, 16, 16384) / payload;
        let c32 = spill_nand_bytes_per_token(&m, 32, 16384) / payload;
        let c64 = spill_nand_bytes_per_token(&m, 64, 16384) / payload;
        assert!((c16 - 2.0).abs() < 1e-9, "c=16 on 16KiB pages amplifies 2x: {c16}");
        assert!((c32 - 1.0).abs() < 1e-9);
        assert!((c64 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn buffer_fits_host_memory() {
        // c=16, bs=16 on OPT-175B: buffer stays far below 512 GB.
        let m = presets::opt_175b();
        let bytes = peak_buffer_bytes(16, &m, 16);
        assert!(bytes < (8u64 << 30), "buffer {bytes} too large");
    }

    #[test]
    fn partial_scores_are_cheap() {
        let m = presets::opt_66b();
        let flops = partial_score_flops(&m, 16, 15);
        // Far below one GPU-millisecond of work; the point of §4.3.
        assert!(flops < 1e10, "flops={flops}");
    }
}
