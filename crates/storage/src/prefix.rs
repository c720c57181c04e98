//! Content-keyed prefix KV cache index over the tiered residency ladder.
//!
//! Shared system prompts and multi-turn conversations re-prefill the same
//! token prefix on every request. The [`PrefixCacheIndex`] keeps hashed,
//! block-granular prefix entries — refcounted while any live request
//! reads them, LRU-ordered within each tier — whose bytes are resident on
//! a [`KvTierLadder`]. A probe answers "how many prefill tokens can this
//! request skip, and from which tier must the KV be recalled"; publishing
//! a finished request's context extends the entry for its key, demoting
//! least-recently-used *unreferenced* entries down the ladder (and off
//! its bottom rung) to make room. Victims come from a per-tier recency
//! order of `(last_touch, key)` pairs kept in step with every touch and
//! tier move, so a pick costs O(log n) plus the pinned entries it skips,
//! and every decision is deterministic.

use crate::tier::{KvTier, KvTierLadder};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

/// Errors from prefix-index refcounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PrefixError {
    /// The key has no cached entry.
    UnknownPrefix(u64),
    /// Release without a matching acquire.
    NotAcquired(u64),
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::UnknownPrefix(k) => write!(f, "prefix key {k:#x} has no cached entry"),
            PrefixError::NotAcquired(k) => {
                write!(f, "prefix key {k:#x} released without a matching acquire")
            }
        }
    }
}

impl Error for PrefixError {}

#[derive(Debug, Clone, Copy)]
struct PrefixEntry {
    tokens: u64,
    tier: KvTier,
    refs: u32,
    last_touch: u64,
}

/// Content-keyed, block-granular prefix KV cache index.
///
/// # Examples
///
/// ```
/// use hilos_storage::{KvTier, KvTierLadder, PrefixCacheIndex, SsdSpec};
///
/// let mut ladder = KvTierLadder::new(1 << 30, 8 << 30, SsdSpec::smartssd_nvme(), 8);
/// let mut index = PrefixCacheIndex::new(64, 1024);
/// assert!(index.publish(0xfeed, 512, &mut ladder));
/// let (hit, tier) = index.probe(0xfeed, 700).expect("prefix cached");
/// assert_eq!(hit, 512);
/// assert_eq!(tier, KvTier::Hbm);
/// assert_eq!(index.probe(0xbeef, 700), None);
/// ```
#[derive(Debug, Clone)]
pub struct PrefixCacheIndex {
    block_tokens: u64,
    bytes_per_token: u64,
    // Entries by prefix key. Victims come from `lru`, never from a scan
    // of this map.
    entries: BTreeMap<u64, PrefixEntry>,
    // Per-tier recency order (indexed by `KvTier::index`): one
    // `(last_touch, key)` pair per entry on that tier, oldest first.
    // The first unpinned pair is the tier's LRU victim: the same
    // `(last_touch, key)` minimum a scan of the tier's unpinned entries
    // finds. The clock ticks before every touch, so `last_touch` values
    // are unique and the key tie-break never has to decide.
    lru: [BTreeSet<(u64, u64)>; 3],
    clock: u64,
    lookups: u64,
    hits: u64,
    saved_tokens: u64,
}

impl PrefixCacheIndex {
    /// Creates an empty index caching prefixes in `block_tokens` units,
    /// with each token's KV footprint costed at `bytes_per_token`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(block_tokens: u64, bytes_per_token: u64) -> Self {
        assert!(block_tokens > 0, "block granularity must be positive");
        assert!(bytes_per_token > 0, "KV bytes per token must be positive");
        PrefixCacheIndex {
            block_tokens,
            bytes_per_token,
            entries: BTreeMap::new(),
            lru: Default::default(),
            clock: 0,
            lookups: 0,
            hits: 0,
            saved_tokens: 0,
        }
    }

    /// Prefix block granularity in tokens.
    pub fn block_tokens(&self) -> u64 {
        self.block_tokens
    }

    /// KV footprint per cached token in bytes.
    pub fn bytes_per_token(&self) -> u64 {
        self.bytes_per_token
    }

    /// Number of cached prefix entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Probes issued so far.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Probes that returned a non-empty hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total prefill tokens skipped by hits.
    pub fn saved_tokens(&self) -> u64 {
        self.saved_tokens
    }

    /// Total ladder bytes owned by cached entries.
    pub fn resident_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.tokens * self.bytes_per_token).sum()
    }

    /// A cached entry's `(tokens, tier, refs)`, if present.
    pub fn entry(&self, key: u64) -> Option<(u64, KvTier, u32)> {
        self.entries.get(&key).map(|e| (e.tokens, e.tier, e.refs))
    }

    fn block_round(&self, tokens: u64) -> u64 {
        tokens / self.block_tokens * self.block_tokens
    }

    /// Looks up the longest cached block-prefix for `key` usable by a
    /// prompt that shares at most `limit_tokens` with it. Counts the
    /// lookup, and on a hit refreshes the entry's LRU position and
    /// returns `(hit_tokens, resident_tier)`.
    pub fn probe(&mut self, key: u64, limit_tokens: u64) -> Option<(u64, KvTier)> {
        self.lookups += 1;
        let limit = self.block_round(limit_tokens);
        let e = self.entries.get_mut(&key)?;
        let hit = e.tokens.min(limit);
        if hit == 0 {
            return None;
        }
        self.clock += 1;
        relink(&mut self.lru, key, (e.tier, e.last_touch), (e.tier, self.clock));
        e.last_touch = self.clock;
        self.hits += 1;
        self.saved_tokens += hit;
        Some((hit, e.tier))
    }

    /// Pins `key` against demotion/eviction while a live request reads it.
    ///
    /// # Errors
    ///
    /// [`PrefixError::UnknownPrefix`] if the key has no entry.
    pub fn acquire(&mut self, key: u64) -> Result<(), PrefixError> {
        let e = self.entries.get_mut(&key).ok_or(PrefixError::UnknownPrefix(key))?;
        e.refs += 1;
        Ok(())
    }

    /// Drops a pin taken by [`PrefixCacheIndex::acquire`] — exactly once
    /// per acquire.
    ///
    /// # Errors
    ///
    /// * [`PrefixError::UnknownPrefix`] if the key has no entry.
    /// * [`PrefixError::NotAcquired`] if the refcount is already zero.
    pub fn release(&mut self, key: u64) -> Result<(), PrefixError> {
        let e = self.entries.get_mut(&key).ok_or(PrefixError::UnknownPrefix(key))?;
        if e.refs == 0 {
            return Err(PrefixError::NotAcquired(key));
        }
        e.refs -= 1;
        Ok(())
    }

    /// The least-recently-used unreferenced entry resident on `tier`
    /// (ties broken by key), if any: the first unpinned pair in the
    /// tier's recency order. A pick costs O(log n) plus one lookup per
    /// pinned entry skipped: at most one per live request, plus the
    /// entry being extended or recalled.
    fn lru_unreferenced(&self, tier: KvTier) -> Option<u64> {
        self.lru[tier.index()].iter().map(|&(_, k)| k).find(|k| self.entries[k].refs == 0)
    }

    /// Frees at least `need` bytes on `tier` by demoting LRU unreferenced
    /// entries one rung down (cascading; bottom-rung victims are evicted
    /// outright). Returns whether the room was made; on failure some
    /// demotions may already have happened — they are valid residency
    /// moves either way.
    fn make_room(&mut self, tier: KvTier, need: u64, ladder: &mut KvTierLadder) -> bool {
        if need > ladder.capacity(tier) {
            return false;
        }
        while ladder.free(tier) < need {
            let Some(victim) = self.lru_unreferenced(tier) else {
                return false;
            };
            let vbytes = self.entries[&victim].tokens * self.bytes_per_token;
            match tier.below() {
                Some(below) => {
                    if !self.make_room(below, vbytes, ladder) {
                        return false;
                    }
                    ladder.demote(tier, vbytes).expect("room below was just made");
                    let e = self.entries.get_mut(&victim).expect("victim is cached");
                    relink(&mut self.lru, victim, (tier, e.last_touch), (below, e.last_touch));
                    e.tier = below;
                }
                None => {
                    ladder.evict(tier, vbytes).expect("entry bytes are resident");
                    let e = self.entries.remove(&victim).expect("victim is cached");
                    self.lru[tier.index()].remove(&(e.last_touch, victim));
                }
            }
        }
        true
    }

    /// Publishes a finished request's context under `key`: inserts the
    /// entry (hottest tier with room, demoting LRU unreferenced entries
    /// to make it) or extends an existing entry in place to the
    /// block-rounded `tokens`. Returns whether the prefix is cached
    /// afterwards; an index under reference pressure may decline.
    pub fn publish(&mut self, key: u64, tokens: u64, ladder: &mut KvTierLadder) -> bool {
        let tokens = self.block_round(tokens);
        if tokens == 0 {
            return false;
        }
        self.clock += 1;
        if self.entries.contains_key(&key) {
            let (held, tier) = {
                let e = self.entries.get_mut(&key).expect("entry is cached");
                relink(&mut self.lru, key, (e.tier, e.last_touch), (e.tier, self.clock));
                e.last_touch = self.clock;
                (e.tokens, e.tier)
            };
            if held >= tokens {
                return true;
            }
            let delta = (tokens - held) * self.bytes_per_token;
            // Pin the entry so it cannot be selected as its own victim.
            self.entries.get_mut(&key).expect("entry is cached").refs += 1;
            let ok = self.make_room(tier, delta, ladder);
            let e = self.entries.get_mut(&key).expect("entry is cached");
            e.refs -= 1;
            if ok {
                ladder.place(tier, delta).expect("room was just made");
                e.tokens = tokens;
            }
            ok
        } else {
            let bytes = tokens * self.bytes_per_token;
            for tier in KvTier::ALL {
                if self.make_room(tier, bytes, ladder) {
                    ladder.place(tier, bytes).expect("room was just made");
                    self.entries
                        .insert(key, PrefixEntry { tokens, tier, refs: 0, last_touch: self.clock });
                    self.lru[tier.index()].insert((self.clock, key));
                    return true;
                }
            }
            false
        }
    }

    /// Recalls the entry for `key` toward the hot end ahead of reuse:
    /// promotes the whole entry to HBM when room can be made (demoting
    /// LRU unreferenced HBM entries), otherwise reads the hit through
    /// from its current tier without moving it. Returns the priced
    /// critical-path seconds of recalling `hit_tokens` worth of KV; `0.0`
    /// if the key is not cached.
    pub fn recall(&mut self, key: u64, hit_tokens: u64, ladder: &mut KvTierLadder) -> f64 {
        let Some(&PrefixEntry { tokens, tier, .. }) = self.entries.get(&key) else {
            return 0.0;
        };
        let hit_bytes = hit_tokens.min(tokens) * self.bytes_per_token;
        if tier == KvTier::Hbm {
            return ladder.read_out(KvTier::Hbm, hit_bytes);
        }
        let entry_bytes = tokens * self.bytes_per_token;
        // Pin the entry: the HBM room-making cascade demotes *into* its
        // tier and must not pick the entry itself as a victim.
        self.entries.get_mut(&key).expect("entry is cached").refs += 1;
        let ok = self.make_room(KvTier::Hbm, entry_bytes, ladder);
        self.entries.get_mut(&key).expect("entry is cached").refs -= 1;
        if ok {
            let seconds = ladder.promote_to_hbm(tier, entry_bytes).expect("room was just made");
            let e = self.entries.get_mut(&key).expect("entry is cached");
            relink(&mut self.lru, key, (tier, e.last_touch), (KvTier::Hbm, e.last_touch));
            e.tier = KvTier::Hbm;
            seconds
        } else {
            ladder.read_out(tier, hit_bytes)
        }
    }
}

/// Moves `key`'s pair in the per-tier recency order when its tier or
/// `last_touch` changes from `from` to `to`.
fn relink(lru: &mut [BTreeSet<(u64, u64)>; 3], key: u64, from: (KvTier, u64), to: (KvTier, u64)) {
    let linked = lru[from.0.index()].remove(&(from.1, key));
    debug_assert!(linked, "prefix {key:#x} missing from the {} recency order", from.0);
    lru[to.0.index()].insert((to.1, key));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SsdSpec;

    fn small_ladder() -> KvTierLadder {
        // 4 KiB HBM, 16 KiB DRAM over a 4-SSD rung.
        KvTierLadder::new(4096, 16384, SsdSpec::smartssd_nvme(), 4)
    }

    #[test]
    fn probe_is_block_granular_and_limit_capped() {
        let mut ladder = small_ladder();
        let mut idx = PrefixCacheIndex::new(64, 1);
        assert!(idx.publish(1, 300, &mut ladder));
        // 300 rounds down to 4 blocks = 256 cached tokens.
        assert_eq!(idx.entry(1), Some((256, KvTier::Hbm, 0)));
        assert_eq!(idx.probe(1, 1000), Some((256, KvTier::Hbm)));
        // A prompt sharing only 130 tokens hits 2 whole blocks.
        assert_eq!(idx.probe(1, 130), Some((128, KvTier::Hbm)));
        // Sub-block overlap is a miss, as is an unknown key.
        assert_eq!(idx.probe(1, 63), None);
        assert_eq!(idx.probe(9, 1000), None);
        assert_eq!((idx.lookups(), idx.hits(), idx.saved_tokens()), (4, 2, 384));
    }

    #[test]
    fn publish_extends_in_place_and_caches_ladder_bytes() {
        let mut ladder = small_ladder();
        let mut idx = PrefixCacheIndex::new(64, 4);
        assert!(idx.publish(5, 128, &mut ladder));
        assert_eq!(ladder.occupied(KvTier::Hbm), 512);
        assert!(idx.publish(5, 256, &mut ladder));
        assert_eq!(idx.entry(5), Some((256, KvTier::Hbm, 0)));
        assert_eq!(ladder.occupied(KvTier::Hbm), 1024);
        assert_eq!(idx.resident_bytes(), ladder.total_occupied());
        // Shrinking publishes keep the longer cached prefix.
        assert!(idx.publish(5, 64, &mut ladder));
        assert_eq!(idx.entry(5), Some((256, KvTier::Hbm, 0)));
        // Sub-block publishes cache nothing.
        assert!(!idx.publish(6, 63, &mut ladder));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn capacity_pressure_demotes_lru_down_the_ladder() {
        let mut ladder = small_ladder();
        let mut idx = PrefixCacheIndex::new(64, 16); // one 64-token block = 1 KiB
                                                     // Four 1 KiB entries fill HBM.
        for key in 0..4 {
            assert!(idx.publish(key, 64, &mut ladder));
        }
        assert_eq!(ladder.free(KvTier::Hbm), 0);
        // Touch 0..3 except key 0, then publish a fifth: key 0 is LRU and
        // demotes to DRAM.
        for key in 1..4 {
            idx.probe(key, 64).expect("cached");
        }
        assert!(idx.publish(4, 64, &mut ladder));
        assert_eq!(idx.entry(0), Some((64, KvTier::Dram, 0)));
        assert_eq!(idx.entry(4), Some((64, KvTier::Hbm, 0)));
        assert_eq!(ladder.occupied(KvTier::Dram), 1024);
        assert_eq!(idx.resident_bytes(), ladder.total_occupied());
        assert_eq!(ladder.traffic(KvTier::Dram).demoted_bytes, 1024);
    }

    #[test]
    fn referenced_entries_are_never_demoted() {
        let mut ladder = small_ladder();
        let mut idx = PrefixCacheIndex::new(64, 16);
        for key in 0..4 {
            assert!(idx.publish(key, 64, &mut ladder));
            idx.acquire(key).unwrap();
        }
        // Every HBM entry is pinned: the new entry lands in DRAM instead.
        assert!(idx.publish(9, 64, &mut ladder));
        assert_eq!(idx.entry(9), Some((64, KvTier::Dram, 0)));
        for key in 0..4 {
            assert_eq!(idx.entry(key), Some((64, KvTier::Hbm, 1)));
            idx.release(key).unwrap();
        }
        // Release is exactly-once.
        assert_eq!(idx.release(0), Err(PrefixError::NotAcquired(0)));
        assert_eq!(idx.acquire(77), Err(PrefixError::UnknownPrefix(77)));
        assert_eq!(idx.release(77), Err(PrefixError::UnknownPrefix(77)));
    }

    #[test]
    fn recall_promotes_cold_entries_and_prices_the_source_tier() {
        let mut ladder = small_ladder();
        let mut idx = PrefixCacheIndex::new(64, 16);
        for key in 0..4 {
            assert!(idx.publish(key, 64, &mut ladder));
        }
        assert!(idx.publish(4, 64, &mut ladder)); // demotes key 0 to DRAM
        assert_eq!(idx.entry(0).map(|e| e.1), Some(KvTier::Dram));
        // Hot hits pay only the HBM read-out.
        let hot = idx.recall(1, 64, &mut ladder);
        // Recalling the DRAM entry promotes it back to HBM (demoting the
        // LRU hot entry to make room) and costs more than the hot hit.
        let cold = idx.recall(0, 64, &mut ladder);
        assert!(cold > hot, "cold recall must cost more: {cold} vs {hot}");
        assert_eq!(idx.entry(0).map(|e| e.1), Some(KvTier::Hbm));
        assert_eq!(ladder.occupied(KvTier::Hbm), 4096);
        assert_eq!(idx.resident_bytes(), ladder.total_occupied());
        assert_eq!(idx.recall(99, 64, &mut ladder), 0.0);
    }

    #[test]
    fn overflow_cascades_to_the_ssd_rung_and_evicts_off_the_bottom() {
        // Tiny DRAM so the cascade reaches the SSD rung quickly.
        let mut ladder = KvTierLadder::new(1024, 1024, SsdSpec::smartssd_nvme(), 2);
        let mut idx = PrefixCacheIndex::new(64, 16);
        for key in 0..8 {
            assert!(idx.publish(key, 64, &mut ladder));
        }
        assert_eq!(idx.len(), 8);
        assert_eq!(ladder.occupied(KvTier::Hbm), 1024);
        assert_eq!(ladder.occupied(KvTier::Dram), 1024);
        assert_eq!(ladder.occupied(KvTier::Ssd), 6 * 1024);
        assert_eq!(idx.resident_bytes(), ladder.total_occupied());
        assert!(ladder.traffic(KvTier::Ssd).demote_seconds > 0.0);
    }
}
