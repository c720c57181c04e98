//! The delayed KV-cache writeback manager (§4.3).
//!
//! New per-step KV vectors are tiny (256 B per head) against the 4 KiB
//! flash page, so writing them through immediately amplifies writes by
//! 16× *and* puts a flash program on the critical path. The manager
//! buffers them in host memory, lets the CPU pre-compute the partial
//! `QKᵀ` scores for the buffered tail, and spills page-sized chunks every
//! `c` steps, off the critical path.
//!
//! A simulated decode step sees the buffer only through the few tail
//! tokens the host scores instead of the SSD reading them, so the
//! simulator solves two steps per operating point, not `c`: one for all
//! the non-spill phases and one for the spill ([`simulated_decision`]).

use crate::config::HilosConfig;
use hilos_llm::ModelConfig;

/// What the manager decides at each decoding step.
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

/// The decision a decode step is simulated at, for a step that takes
/// `decision` under `config`'s writeback settings.
///
/// The non-spill phases of a cycle differ only in how many buffered tail
/// tokens (`0..=c − 2`) the host scores instead of the SSD reading them,
/// which moves a step's seconds by a few parts in 10⁴ at long contexts.
/// Each of them is simulated at the middle buffer `(c − 2)/2`: the
/// phases' mean for an even `c`, half a token below it for an odd one.
/// The spill step, and the constant [`SpillDecision::NONE`] with delayed
/// writeback off, pass through unchanged.
///
/// # Examples
///
/// ```
/// use hilos_core::{simulated_decision, HilosConfig, SpillDecision, WritebackManager};
///
/// let config = HilosConfig::new(8); // c = 16
/// let mut wb = WritebackManager::new(config.spill_interval());
/// let solved: Vec<SpillDecision> =
///     (0..16).map(|_| simulated_decision(&config, wb.on_step())).collect();
/// assert!(solved[..15].iter().all(|d| d.buffered_tokens == 7 && !d.spill_now));
/// assert_eq!(solved[15], SpillDecision { buffered_tokens: 15, spill_now: true, spill_tokens: 16 });
/// ```
pub fn simulated_decision(config: &HilosConfig, decision: SpillDecision) -> SpillDecision {
    if !config.delayed_writeback() || decision.spill_now {
        return decision;
    }
    SpillDecision {
        buffered_tokens: config.spill_interval().saturating_sub(2) / 2,
        spill_now: false,
        spill_tokens: 0,
    }
}

/// Tracks the host-side KV buffer across decoding steps (the paper's
/// *Writeback Manager* middleware component).
///
/// # Examples
///
/// ```
/// use hilos_core::WritebackManager;
///
/// let mut wb = WritebackManager::new(4);
/// let mut spills = 0;
/// for _ in 0..8 {
///     if wb.on_step().spill_now {
///         spills += 1;
///     }
/// }
/// assert_eq!(spills, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritebackManager {
    spill_interval: u32,
    buffered: u32,
    total_spills: u64,
}

impl WritebackManager {
    /// Creates a manager with spill interval `c` (the paper's default is
    /// 16, aligning a 256 B/step/head stream with 4 KiB pages).
    ///
    /// # Panics
    ///
    /// Panics if `c` is zero.
    pub fn new(spill_interval: u32) -> Self {
        assert!(spill_interval >= 1, "spill interval must be at least 1");
        WritebackManager { spill_interval, buffered: 0, total_spills: 0 }
    }

    /// The configured spill interval.
    pub fn spill_interval(&self) -> u32 {
        self.spill_interval
    }

    /// Tokens per sequence currently buffered.
    pub fn buffered_tokens(&self) -> u32 {
        self.buffered
    }

    /// Number of spills so far.
    pub fn total_spills(&self) -> u64 {
        self.total_spills
    }

    /// Advances one decoding step: the new token's KV joins the buffer,
    /// and the buffer spills when it reaches the interval.
    pub fn on_step(&mut self) -> SpillDecision {
        let before = self.buffered;
        self.buffered += 1;
        if self.buffered >= self.spill_interval {
            let spilled = self.buffered;
            self.buffered = 0;
            self.total_spills += 1;
            SpillDecision { buffered_tokens: before, spill_now: true, spill_tokens: spilled }
        } else {
            SpillDecision { buffered_tokens: before, spill_now: false, spill_tokens: 0 }
        }
    }

    /// Host-memory bytes the buffer occupies for a whole batch right
    /// before a spill (all layers): `c · batch · kv_bytes_per_token`.
    pub fn peak_buffer_bytes(&self, model: &ModelConfig, batch: u32) -> u64 {
        self.spill_interval as u64 * batch as u64 * model.kv_bytes_per_token()
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

#[cfg(test)]
mod tests {
    use super::*;
    use hilos_llm::presets;

    #[test]
    fn simulated_decisions_take_two_values_per_cycle() {
        for c in [1, 2, 3, 16, 32] {
            let config = HilosConfig::new(8).with_spill_interval(c);
            let mut wb = WritebackManager::new(c);
            for _ in 0..2 * c {
                let d = wb.on_step();
                let s = simulated_decision(&config, d);
                if d.spill_now {
                    assert_eq!(s, d, "c={c}: the spill step is solved as is");
                } else {
                    assert_eq!(s, SpillDecision { buffered_tokens: (c - 2) / 2, ..d }, "c={c}");
                }
            }
            let off = config.with_writeback(false);
            assert_eq!(simulated_decision(&off, SpillDecision::NONE), SpillDecision::NONE);
        }
    }

    #[test]
    fn spills_every_c_steps() {
        let mut wb = WritebackManager::new(16);
        let mut spill_steps = Vec::new();
        for step in 0..64 {
            let d = wb.on_step();
            if d.spill_now {
                spill_steps.push(step);
                assert_eq!(d.spill_tokens, 16);
            }
        }
        assert_eq!(spill_steps, vec![15, 31, 47, 63]);
        assert_eq!(wb.total_spills(), 4);
        assert_eq!(wb.buffered_tokens(), 0);
    }

    #[test]
    fn buffered_tail_grows_between_spills() {
        let mut wb = WritebackManager::new(4);
        assert_eq!(wb.on_step().buffered_tokens, 0);
        assert_eq!(wb.on_step().buffered_tokens, 1);
        assert_eq!(wb.on_step().buffered_tokens, 2);
        let d = wb.on_step();
        assert_eq!(d.buffered_tokens, 3);
        assert!(d.spill_now);
        assert_eq!(wb.on_step().buffered_tokens, 0);
    }

    #[test]
    fn interval_one_degenerates_to_write_through() {
        let mut wb = WritebackManager::new(1);
        for _ in 0..5 {
            let d = wb.on_step();
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
        let wb = WritebackManager::new(16);
        let bytes = wb.peak_buffer_bytes(&m, 16);
        assert!(bytes < (8u64 << 30), "buffer {bytes} too large");
    }

    #[test]
    fn partial_scores_are_cheap() {
        let m = presets::opt_66b();
        let flops = WritebackManager::partial_score_flops(&m, 16, 15);
        // Far below one GPU-millisecond of work; the point of §4.3.
        assert!(flops < 1e10, "flops={flops}");
    }
}
