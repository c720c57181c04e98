//! The step and prefill memo: simulated decode steps keyed by their
//! quantized operating point, and whole-prompt prefill times keyed by
//! context. A [`SharedStepCache`] is owned by one engine or shared by a
//! cluster's system-fingerprint group; every lookup and miss goes through
//! the `ServeEngine` methods here. The bit-pattern hasher of the run's
//! step-gap counter lives here too, since it counts memoized step times.

use super::ServeEngine;
use crate::runner::CoreError;
use crate::writeback::{simulated_decision, SpillDecision};
use std::collections::HashMap;
use std::hash::Hasher;

/// Context quantum of the chunk-path prefill memoization. Chunk cursors
/// are rounded to this *fixed* grid — unlike the adaptive
/// [`ServeConfig::ctx_quantum`](super::ServeConfig::ctx_quantum)
/// rounding, a fixed grid keeps per-chunk times telescoping to the same
/// whole-prompt total whatever the chunk size (the conservation property
/// the proptests pin: chunked and lump ingestion of the same prompt cost
/// the same total seconds).
const PREFILL_CHUNK_QUANTUM: u64 = 64;

/// A decode step's operating point. The writeback state enters as the
/// solved decision ([`simulated_decision`]): its buffer, one or two
/// middle phases per cycle, and `spill_now`. The spill size is fixed by
/// the shared configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct StepKey {
    batch: u32,
    context: u64,
    alpha_bits: u64,
    buffered: u32,
    spill_now: bool,
}

/// Hashes an `f64` bit pattern with one multiply. The step-gap counter
/// is updated every decode step over a few hundred keys whose mantissas
/// are already well spread, so SipHash's flood resistance buys nothing:
/// one multiply costs ~5 ms over fleet-elastic's 1.56M steps where
/// SipHash costs 20–30 ms (x86-64, release build).
#[derive(Default)]
pub(super) struct BitsHasher(u64);

impl Hasher for BitsHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("BitsHasher only hashes u64 keys")
    }

    fn write_u64(&mut self, bits: u64) {
        self.0 = bits.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The scalar slice of a [`StepOutcome`](crate::StepOutcome) the serving
/// loop consumes every step — `Copy`, so cache hits stay allocation-free
/// (the full outcome's per-category breakdown would clone a
/// `Vec<String>` per step).
#[derive(Debug, Clone, Copy)]
pub(super) struct CachedStep {
    pub(super) seconds: f64,
    pub(super) host_pcie_bytes: f64,
    pub(super) internal_read_bytes: f64,
}

/// Step/prefill memoization tables. Every engine owns one; a cluster
/// hands every deployment of one system fingerprint the same table, so a
/// freshly provisioned elastic slot (or the 31 siblings of a homogeneous
/// fleet) warm-starts from what any twin already computed instead of
/// re-paying the misses.
///
/// Plain single-threaded maps, shared within a fingerprint group through
/// `Rc<RefCell<_>>`; a borrow lasts one lookup or one insert, never a
/// step solve. A cached value is a *pure function* of its key given the
/// shared fingerprint, so the simulation outcome is independent of which
/// deployment filled an entry first — the cache changes wall-clock, never results.
#[derive(Debug, Default)]
pub(crate) struct SharedStepCache {
    steps: HashMap<StepKey, CachedStep>,
    prefills: HashMap<(u64, u64), f64>,
}

impl SharedStepCache {
    /// Copies `other`'s entries in, keeping any this table already holds
    /// (within one fingerprint group equal keys hold equal values).
    pub(super) fn absorb(&mut self, other: &SharedStepCache) {
        for (&k, &v) in &other.steps {
            self.steps.entry(k).or_insert(v);
        }
        for (&k, &v) in &other.prefills {
            self.prefills.entry(k).or_insert(v);
        }
    }

    /// Distinct decode-step operating points held.
    pub(super) fn step_entries(&self) -> usize {
        self.steps.len()
    }
}

impl ServeEngine {
    /// Rounds a context to the nearest step-cache bucket. The quantum
    /// halves (down to 16 tokens) until it is at most a quarter of the
    /// context, so the rounding error is centered on zero and bounded at
    /// ~12.5% even for prompts far shorter than `ctx_quantum`.
    pub(super) fn quantize(&self, ctx: u64) -> u64 {
        let ctx = ctx.max(1);
        let mut q = self.config.ctx_quantum;
        while q > 16 && q * 4 > ctx {
            q /= 2;
        }
        ((ctx + q / 2) / q).max(1) * q
    }

    /// Memoized `execute_prefill(1, ctx, α)` at an already-rounded
    /// context — the single miss path behind both rounding grids, so the
    /// cached value's meaning cannot drift between them.
    fn prefill_seconds_rounded(&mut self, ctx: u64, alpha: f64) -> Result<f64, CoreError> {
        let key = (ctx, alpha.to_bits());
        if let Some(&s) = self.memo.borrow().prefills.get(&key) {
            return Ok(s);
        }
        let s = self.exec.execute_prefill(1, ctx, alpha)?;
        self.memo.borrow_mut().prefills.insert(key, s);
        Ok(s)
    }

    pub(super) fn prefill_seconds(
        &mut self,
        prompt_len: u64,
        alpha: f64,
    ) -> Result<f64, CoreError> {
        let ctx = self.quantize(prompt_len);
        self.prefill_seconds_rounded(ctx, alpha)
    }

    /// Whole-prompt prefill seconds at a chunk-cursor context, memoized
    /// on the fixed [`PREFILL_CHUNK_QUANTUM`] grid (shared cache with
    /// [`ServeEngine::prefill_seconds`] — both store the same
    /// `execute_prefill(1, ctx, α)` value, only the rounding differs).
    fn prefill_seconds_at(&mut self, ctx: u64, alpha: f64) -> Result<f64, CoreError> {
        let q = PREFILL_CHUNK_QUANTUM;
        self.prefill_seconds_rounded(((ctx + q / 2) / q).max(1) * q, alpha)
    }

    /// Seconds to ingest prompt tokens `[start, start + len)` — the
    /// difference of the whole-prompt prefill times at the chunk's two
    /// cursors, so attention's growing cost lands on the later chunks
    /// and a request's chunks telescope to exactly its lump prefill.
    pub(super) fn prefill_chunk_seconds(
        &mut self,
        start: u64,
        len: u64,
        alpha: f64,
    ) -> Result<f64, CoreError> {
        let end = self.prefill_seconds_at(start + len, alpha)?;
        if start == 0 {
            return Ok(end);
        }
        let begin = self.prefill_seconds_at(start, alpha)?;
        // Rounding to the chunk grid can land both cursors in one
        // bucket; clamp so a chunk is never negative time.
        Ok((end - begin).max(0.0))
    }

    /// The memoized decode step at an already-quantized context, for a
    /// step that takes the writeback `decision`. The step is solved at
    /// the decision [`simulated_decision`] maps it to.
    pub(super) fn decode_step(
        &mut self,
        batch: u32,
        context: u64,
        alpha: f64,
        decision: SpillDecision,
    ) -> Result<CachedStep, CoreError> {
        let solved = simulated_decision(self.system().config(), decision);
        let key = StepKey {
            batch,
            context,
            alpha_bits: alpha.to_bits(),
            buffered: solved.buffered_tokens,
            spill_now: solved.spill_now,
        };
        if let Some(&o) = self.memo.borrow().steps.get(&key) {
            return Ok(o);
        }
        let o = self.exec.execute_step(batch, context, alpha, &solved)?;
        let cached = CachedStep {
            seconds: o.seconds,
            host_pcie_bytes: o.host_pcie_bytes,
            internal_read_bytes: o.internal_read_bytes,
        };
        self.memo.borrow_mut().steps.insert(key, cached);
        Ok(cached)
    }
}
