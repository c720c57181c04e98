//! Property tests for the KV shard ledger and prefix-cache
//! residency-ladder invariants, plus a differential check of the prefix
//! index's victim order against a full-scan reference.

use hilos_sim::SimTime;
use hilos_storage::{
    KvShardLedger, KvTier, KvTierLadder, PrefixCacheIndex, PrefixError, ShardSpec, SsdSpec,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone, Copy)]
struct ScanEntry {
    tokens: u64,
    tier: KvTier,
    refs: u32,
    last_touch: u64,
}

/// Reference prefix index for the differential test: the same publish,
/// probe, pin and recall semantics as [`PrefixCacheIndex`], but each
/// victim is found by scanning every entry for the minimum
/// `(last_touch, key)` among the tier's unpinned ones.
struct ScanIndex {
    block_tokens: u64,
    bytes_per_token: u64,
    entries: BTreeMap<u64, ScanEntry>,
    clock: u64,
    lookups: u64,
    hits: u64,
    saved_tokens: u64,
}

impl ScanIndex {
    fn new(block_tokens: u64, bytes_per_token: u64) -> Self {
        ScanIndex {
            block_tokens,
            bytes_per_token,
            entries: BTreeMap::new(),
            clock: 0,
            lookups: 0,
            hits: 0,
            saved_tokens: 0,
        }
    }

    fn entry(&self, key: u64) -> Option<(u64, KvTier, u32)> {
        self.entries.get(&key).map(|e| (e.tokens, e.tier, e.refs))
    }

    fn block_round(&self, tokens: u64) -> u64 {
        tokens / self.block_tokens * self.block_tokens
    }

    fn probe(&mut self, key: u64, limit_tokens: u64) -> Option<(u64, KvTier)> {
        self.lookups += 1;
        let limit = self.block_round(limit_tokens);
        let e = self.entries.get_mut(&key)?;
        let hit = e.tokens.min(limit);
        if hit == 0 {
            return None;
        }
        self.clock += 1;
        e.last_touch = self.clock;
        self.hits += 1;
        self.saved_tokens += hit;
        Some((hit, e.tier))
    }

    fn acquire(&mut self, key: u64) -> Result<(), PrefixError> {
        self.entries.get_mut(&key).ok_or(PrefixError::UnknownPrefix(key))?.refs += 1;
        Ok(())
    }

    fn release(&mut self, key: u64) -> Result<(), PrefixError> {
        let e = self.entries.get_mut(&key).ok_or(PrefixError::UnknownPrefix(key))?;
        if e.refs == 0 {
            return Err(PrefixError::NotAcquired(key));
        }
        e.refs -= 1;
        Ok(())
    }

    fn victim(&self, tier: KvTier) -> Option<u64> {
        self.entries
            .iter()
            .filter(|(_, e)| e.tier == tier && e.refs == 0)
            .min_by_key(|(k, e)| (e.last_touch, **k))
            .map(|(k, _)| *k)
    }

    fn make_room(&mut self, tier: KvTier, need: u64, ladder: &mut KvTierLadder) -> bool {
        if need > ladder.capacity(tier) {
            return false;
        }
        while ladder.free(tier) < need {
            let Some(victim) = self.victim(tier) else {
                return false;
            };
            let vbytes = self.entries[&victim].tokens * self.bytes_per_token;
            match tier.below() {
                Some(below) => {
                    if !self.make_room(below, vbytes, ladder) {
                        return false;
                    }
                    ladder.demote(tier, vbytes).unwrap();
                    self.entries.get_mut(&victim).unwrap().tier = below;
                }
                None => {
                    ladder.evict(tier, vbytes).unwrap();
                    self.entries.remove(&victim);
                }
            }
        }
        true
    }

    fn publish(&mut self, key: u64, tokens: u64, ladder: &mut KvTierLadder) -> bool {
        let tokens = self.block_round(tokens);
        if tokens == 0 {
            return false;
        }
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&key) {
            e.last_touch = self.clock;
            let (held, tier) = (e.tokens, e.tier);
            if held >= tokens {
                return true;
            }
            let delta = (tokens - held) * self.bytes_per_token;
            e.refs += 1;
            let ok = self.make_room(tier, delta, ladder);
            let e = self.entries.get_mut(&key).unwrap();
            e.refs -= 1;
            if ok {
                ladder.place(tier, delta).unwrap();
                e.tokens = tokens;
            }
            return ok;
        }
        let bytes = tokens * self.bytes_per_token;
        for tier in KvTier::ALL {
            if self.make_room(tier, bytes, ladder) {
                ladder.place(tier, bytes).unwrap();
                let e = ScanEntry { tokens, tier, refs: 0, last_touch: self.clock };
                self.entries.insert(key, e);
                return true;
            }
        }
        false
    }

    fn recall(&mut self, key: u64, hit_tokens: u64, ladder: &mut KvTierLadder) -> f64 {
        let Some(&ScanEntry { tokens, tier, .. }) = self.entries.get(&key) else {
            return 0.0;
        };
        let hit_bytes = hit_tokens.min(tokens) * self.bytes_per_token;
        if tier == KvTier::Hbm {
            return ladder.read_out(KvTier::Hbm, hit_bytes);
        }
        let entry_bytes = tokens * self.bytes_per_token;
        self.entries.get_mut(&key).unwrap().refs += 1;
        let ok = self.make_room(KvTier::Hbm, entry_bytes, ladder);
        self.entries.get_mut(&key).unwrap().refs -= 1;
        if ok {
            let seconds = ladder.promote_to_hbm(tier, entry_bytes).unwrap();
            self.entries.get_mut(&key).unwrap().tier = KvTier::Hbm;
            seconds
        } else {
            ladder.read_out(tier, hit_bytes)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of request admissions and completions leaves every
    /// device's `occupied_bytes` equal to the sum of the live requests'
    /// placements on it — including with a degraded (low-weight) device in
    /// the stripe — and placement skew follows the weights.
    #[test]
    fn ledger_occupancy_matches_live_requests(
        ops in prop::collection::vec((any::<bool>(), 0u64..40, 1u64..200_000), 1..300),
        degraded_weight_pct in 0u32..100,
    ) {
        let n = 4;
        let capacity = 1_u64 << 21; // 2 MiB per device
        let weight = degraded_weight_pct as f64 / 100.0;
        let mut shards = vec![ShardSpec { capacity_bytes: capacity, weight: 1.0 }; n];
        shards[2].weight = weight; // device 2 is degraded (possibly offline)
        let mut ledger = KvShardLedger::new(shards);

        // Model: request id -> per-device placement of live requests.
        let mut live: HashMap<u64, Vec<u64>> = HashMap::new();
        for (admit, id, bytes) in ops {
            if admit {
                let admissible = ledger.can_allocate(bytes);
                let result = ledger.allocate(id, bytes);
                if !live.contains_key(&id) {
                    prop_assert_eq!(admissible, result.is_ok(), "can_allocate({}) disagreed", bytes);
                }
                match result {
                    Ok(p) => {
                        prop_assert!(!live.contains_key(&id), "duplicate admitted");
                        prop_assert_eq!(p.iter().sum::<u64>(), bytes);
                        if weight == 0.0 {
                            prop_assert_eq!(p[2], 0, "offline device took placement");
                        }
                        live.insert(id, p.to_vec());
                    }
                    Err(_) => {
                        // Rejections must leave the ledger untouched; the
                        // invariant check below verifies that.
                    }
                }
            } else if let Some(expected) = live.remove(&id) {
                let freed = ledger.release(id).unwrap();
                prop_assert_eq!(freed, expected);
            } else {
                prop_assert!(ledger.release(id).is_err());
            }
            // The invariant: per-device occupancy == sum of live placements.
            for d in 0..n {
                let sum: u64 = live.values().map(|p| p[d]).sum();
                prop_assert_eq!(ledger.occupied_bytes(d), sum, "device {}", d);
            }
            prop_assert_eq!(ledger.live_requests(), live.len());
        }
        // Aggregate skew: the degraded device never holds more than its
        // fair share would allow (weight 1.0 devices hold the bulk).
        let healthy: u64 = [0, 1, 3].iter().map(|&d| ledger.occupied_bytes(d)).sum();
        if weight == 0 as f64 {
            prop_assert_eq!(ledger.occupied_bytes(2), 0);
        } else if healthy > 0 && weight < 0.5 {
            prop_assert!(
                ledger.occupied_bytes(2) <= healthy,
                "degraded device overloaded: {} vs {}",
                ledger.occupied_bytes(2),
                healthy
            );
        }
    }

    /// Prefix-cache residency conservation: under any interleaving of
    /// publishes, probes, pins, releases and recalls, every entry's bytes
    /// are resident in exactly one tier (per-tier ladder occupancy equals
    /// the sum of that tier's entries, and never exceeds capacity), and a
    /// pinned entry survives every make-room demotion cascade. The tiny
    /// HBM/DRAM rungs force constant cascades into the SSD rung.
    #[test]
    fn prefix_ladder_conserves_residency_and_pins(
        ops in prop::collection::vec((0u8..5, 1u64..12, 1u64..6000), 1..300),
    ) {
        const BPT: u64 = 16; // bytes per token -> 1 KiB blocks of 64 tokens
        let mut ladder = KvTierLadder::new(96 << 10, 384 << 10, SsdSpec::smartssd_nvme(), 2);
        let mut index = PrefixCacheIndex::new(64, BPT);
        let mut pins: HashMap<u64, u32> = HashMap::new();
        for (op, key, tokens) in ops {
            match op {
                0 | 1 => {
                    index.publish(key, tokens, &mut ladder);
                }
                2 => {
                    // A probe can miss on a resident entry (limit below
                    // one block); pinning is keyed on residency, not hits.
                    if index.entry(key).is_some() {
                        index.probe(key, tokens);
                        index.acquire(key).unwrap();
                        *pins.entry(key).or_insert(0) += 1;
                    } else {
                        prop_assert!(index.acquire(key).is_err(), "acquired a missing entry");
                    }
                }
                3 => {
                    match pins.get_mut(&key) {
                        Some(n) if *n > 0 => {
                            index.release(key).unwrap();
                            *n -= 1;
                        }
                        _ => prop_assert!(
                            index.release(key).is_err(),
                            "released an unpinned entry"
                        ),
                    }
                }
                _ => {
                    if let Some((hit, _tier)) = index.probe(key, tokens) {
                        let s = index.recall(key, hit, &mut ladder);
                        prop_assert!(s >= 0.0 && s.is_finite());
                    }
                }
            }
            // Conservation: the ladder holds exactly the index's entries,
            // each in one tier, within capacity.
            let mut per_tier = [0u64; 3];
            for k in 0..12 {
                if let Some((toks, tier, _refs)) = index.entry(k) {
                    per_tier[tier.index()] += toks * BPT;
                }
            }
            for t in KvTier::ALL {
                prop_assert_eq!(ladder.occupied(t), per_tier[t.index()], "{} occupancy", t.label());
                prop_assert!(ladder.occupied(t) <= ladder.capacity(t), "{} overfull", t.label());
            }
            prop_assert_eq!(index.resident_bytes(), per_tier.iter().sum::<u64>());
            // Refcount safety: pinned entries are never evicted by a
            // cascade, and their refcounts match the model's.
            for (&k, &n) in &pins {
                if n > 0 {
                    let entry = index.entry(k);
                    prop_assert!(entry.is_some(), "pinned entry {} evicted", k);
                    prop_assert_eq!(entry.unwrap().2, n, "refcount drifted for {}", k);
                }
            }
            prop_assert!(index.hits() <= index.lookups());
        }
    }

    /// The index's per-tier recency order picks the same victims as a
    /// full scan for the minimum `(last_touch, key)` over the tier's
    /// unpinned entries. Both run the same random publishes, probes,
    /// pins, releases and recalls over ladders of their own; after every
    /// op they must agree on the op's result, every key's entry, and each
    /// rung's occupancy and traffic. Sixty-four keys over small rungs (a
    /// 192 KiB SSD rung included, so entries fall off the bottom) keep
    /// many entries per tier, and long-lived pins sit at the head of the
    /// recency order while the cascade works around them.
    #[test]
    fn prefix_victims_match_a_full_scan(
        ops in prop::collection::vec((0u8..6, 0u64..64, 1u64..1200), 1..400),
    ) {
        const BPT: u64 = 16; // bytes per token -> 1 KiB blocks of 64 tokens
        let ssd = SsdSpec::new(96 << 10, 3.2e9, 2.0e9, 4096, SimTime::from_micros(25), 7.008e15);
        let new_ladder = || KvTierLadder::new(32 << 10, 64 << 10, ssd, 2);
        let (mut ladder, mut scan_ladder) = (new_ladder(), new_ladder());
        let mut index = PrefixCacheIndex::new(64, BPT);
        let mut scan = ScanIndex::new(64, BPT);
        for (op, key, tokens) in ops {
            match op {
                0 | 1 => prop_assert_eq!(
                    index.publish(key, tokens, &mut ladder),
                    scan.publish(key, tokens, &mut scan_ladder)
                ),
                2 => prop_assert_eq!(index.probe(key, tokens), scan.probe(key, tokens)),
                3 => prop_assert_eq!(index.acquire(key), scan.acquire(key)),
                4 => prop_assert_eq!(index.release(key), scan.release(key)),
                _ => {
                    let s = index.recall(key, tokens, &mut ladder);
                    let r = scan.recall(key, tokens, &mut scan_ladder);
                    prop_assert_eq!(s.to_bits(), r.to_bits(), "recall of {} priced apart", key);
                }
            }
            for k in 0..64 {
                prop_assert_eq!(index.entry(k), scan.entry(k), "entry {} diverged", k);
            }
            for t in KvTier::ALL {
                prop_assert_eq!(ladder.occupied(t), scan_ladder.occupied(t), "{} occupancy", t);
                prop_assert_eq!(ladder.traffic(t), scan_ladder.traffic(t), "{} traffic", t);
            }
            prop_assert_eq!(
                (index.len(), index.lookups(), index.hits(), index.saved_tokens()),
                (scan.entries.len(), scan.lookups, scan.hits, scan.saved_tokens)
            );
        }
    }
}
