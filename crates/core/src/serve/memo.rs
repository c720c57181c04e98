//! The step and prefill memo: simulated decode steps keyed by their
//! quantized operating point, and whole-prompt prefill times keyed by
//! context. A [`SharedStepCache`] is owned by one engine or shared by a
//! cluster's system-fingerprint group; every lookup and miss goes through
//! the `ServeEngine` methods here. The integer hasher that keys both
//! tables lives here too; the run's step-gap counter and the other
//! integer-keyed maps of the serving loop share it.

use super::ServeEngine;
use crate::runner::CoreError;
use crate::step::StepOutcome;
use crate::writeback::{simulated_decision, SpillDecision};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

/// A multiply-rotate hasher for the serving loop's integer-keyed maps:
/// the two [`SharedStepCache`] tables, the step-gap counter, the
/// snapshot footprint estimates and the prefix cache's per-request maps.
/// Each `u64` word folds in as `(h.rotate_left(26) ^ word) · K`;
/// narrower integers widen to one word. A single `u64` key therefore
/// hashes to `bits · K`, one multiply. Every key is a request id, a
/// quantized operating point or an `f64` bit pattern the simulator made
/// itself, so SipHash's flood resistance buys nothing: on fleet-elastic's
/// 1.56M steps the step-gap counter costs ~5 ms with one multiply against
/// 20–30 ms with SipHash, and every memo hit pays one such hash instead
/// of a SipHash (x86-64, release build).
#[derive(Default)]
pub(super) struct BitsHasher(u64);

/// A `HashMap` keyed through [`BitsHasher`].
pub(super) type BitsMap<K, V> = HashMap<K, V, BuildHasherDefault<BitsHasher>>;

impl Hasher for BitsHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("BitsHasher only hashes integer keys")
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(26) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u8(&mut self, word: u8) {
        self.write_u64(u64::from(word));
    }

    fn finish(&self) -> u64 {
        self.0
    }
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
    steps: BitsMap<StepKey, StepOutcome>,
    prefills: BitsMap<(u64, u64), f64>,
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
    ///
    /// Returns the chunk's seconds and the whole-prompt seconds at its
    /// end cursor. The next chunk of the same request passes that value
    /// back as `begin`: it is the memo value a lookup at its `start`
    /// would read, so a chunk costs one lookup, not two.
    pub(super) fn prefill_chunk_seconds(
        &mut self,
        start: u64,
        len: u64,
        alpha: f64,
        begin: Option<f64>,
    ) -> Result<(f64, f64), CoreError> {
        let end = self.prefill_seconds_at(start + len, alpha)?;
        if start == 0 {
            return Ok((end, end));
        }
        let begin = match begin {
            Some(b) => b,
            None => self.prefill_seconds_at(start, alpha)?,
        };
        // Rounding to the chunk grid can land both cursors in one
        // bucket; clamp so a chunk is never negative time.
        Ok(((end - begin).max(0.0), end))
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
    ) -> Result<StepOutcome, CoreError> {
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
        self.memo.borrow_mut().steps.insert(key, o);
        Ok(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: &impl Hash) -> u64 {
        BuildHasherDefault::<BitsHasher>::default().hash_one(key)
    }

    #[test]
    fn a_single_word_hashes_with_one_multiply() {
        for bits in [0, 1, 42, 1 << 63, u64::MAX, 0.25f64.to_bits(), 1.5e-3f64.to_bits()] {
            assert_eq!(hash_of(&bits), bits.wrapping_mul(0x9e37_79b9_7f4a_7c15), "{bits:#x}");
        }
    }

    #[test]
    fn step_keys_differing_in_one_field_hash_apart() {
        let mut keys = Vec::new();
        for batch in [1, 2, 16] {
            for context in [64, 128, 8192] {
                for alpha in [0.25f64, 0.5, 1.0] {
                    for buffered in [0, 1, 64] {
                        for spill_now in [false, true] {
                            let alpha_bits = alpha.to_bits();
                            keys.push(StepKey { batch, context, alpha_bits, buffered, spill_now });
                        }
                    }
                }
            }
        }
        // Every key of the grid hashes apart from every other, so in
        // particular from each neighbour that differs in one field.
        let hashes: HashSet<u64> = keys.iter().map(hash_of).collect();
        assert_eq!(hashes.len(), keys.len());
        let prefills: HashSet<u64> =
            keys.iter().map(|k| hash_of(&(k.context, k.alpha_bits))).collect();
        assert_eq!(prefills.len(), 9, "prefill keys (context, α) must hash apart too");
    }
}
