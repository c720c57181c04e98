//! The prefix KV cache of one deployment: a content-keyed
//! [`PrefixCacheIndex`] over a [`KvTierLadder`], plus preemption victims'
//! KV parked in the ladder. The `ServeEngine` methods here are the only
//! code that moves bytes in or out of it: admission reuses cached KV,
//! preemption demotes a victim, eviction publishes a finished request's
//! prefix, and a run reports the cache's activity as a delta against
//! its start.

use super::config::PrefixCacheConfig;
use super::engine::{QueueEntry, RunState};
use super::memo::BitsMap;
use super::ServeEngine;
use hilos_llm::{ModelConfig, Request};
use hilos_metrics::PrefixCacheStats;
use hilos_storage::{KvTier, KvTierLadder, PrefixCacheIndex, SsdSpec, TierTraffic};
use hilos_trace::EventKind;

/// A preemption victim's ingested KV parked in the residency ladder,
/// awaiting recall on re-admission.
#[derive(Debug, Clone, Copy)]
struct DemotedKv {
    /// Prefill tokens the parked KV re-materializes.
    tokens: u64,
    /// Ladder bytes the parked KV occupies.
    bytes: u64,
    /// Which rung holds it.
    tier: KvTier,
}

/// Live prefix-cache state of one deployment, present only when
/// [`ServeConfig::prefix_cache`](super::ServeConfig::prefix_cache) is
/// set. Persists across runs (like the step memo); per-run reporting
/// subtracts the [`CacheBaseline`] captured at run start.
#[derive(Debug)]
pub(super) struct PrefixCacheState {
    index: PrefixCacheIndex,
    ladder: KvTierLadder,
    /// Request id → the prefix key it acquired at admission; released on
    /// eviction or preemption (exactly once, the index enforces it).
    held: BitsMap<u64, u64>,
    /// Request id → preempted-victim KV parked in the ladder.
    demoted: BitsMap<u64, DemotedKv>,
    /// KV footprint per cached token, from the model.
    bytes_per_token: u64,
}

/// Index/ladder counter values at run start — the cache outlives a run,
/// the [`TraceReport`](super::TraceReport) wants this run's deltas.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct CacheBaseline {
    lookups: u64,
    hits: u64,
    saved_tokens: u64,
    traffic: [TierTraffic; 3],
}

impl PrefixCacheState {
    /// An empty index and ladder sized by `pc`, with the SSD rung spread
    /// over `devices` SmartSSDs.
    pub(super) fn new(pc: &PrefixCacheConfig, model: &ModelConfig, devices: usize) -> Self {
        let bytes_per_token = model.kv_bytes_per_token().max(1);
        PrefixCacheState {
            index: PrefixCacheIndex::new(pc.block_tokens, bytes_per_token),
            ladder: KvTierLadder::new(
                pc.hbm_bytes,
                pc.dram_bytes,
                SsdSpec::smartssd_nvme(),
                devices,
            ),
            held: BitsMap::default(),
            demoted: BitsMap::default(),
            bytes_per_token,
        }
    }
}

impl ServeEngine {
    /// Preemption victims whose ingested KV is currently parked in the
    /// residency ladder awaiting recall (always 0 with the prefix cache
    /// off). A drained deployment must report zero — parked KV cannot
    /// follow a request to another deployment.
    pub fn parked_victim_kv(&self) -> usize {
        self.cache.as_ref().map_or(0, |cs| cs.demoted.len())
    }

    /// The prefix cache's lifetime hit rate on this deployment (`0.0`
    /// with the cache off or before any probe) — a routing signal: a
    /// deployment that keeps hitting shares more prefixes with the
    /// traffic already routed to it.
    pub fn prefix_hit_rate(&self) -> f64 {
        match &self.cache {
            Some(cs) if cs.index.lookups() > 0 => {
                cs.index.hits() as f64 / cs.index.lookups() as f64
            }
            _ => 0.0,
        }
    }

    /// The cache's counter values now, captured when a run starts
    /// (all zero with the cache off).
    pub(super) fn cache_baseline(&self) -> CacheBaseline {
        match &self.cache {
            Some(cs) => CacheBaseline {
                lookups: cs.index.lookups(),
                hits: cs.index.hits(),
                saved_tokens: cs.index.saved_tokens(),
                traffic: KvTier::ALL.map(|t| cs.ladder.traffic(t)),
            },
            None => CacheBaseline::default(),
        }
    }

    /// Adds the index and ladder activity since `base` to `prefix`. The
    /// index and ladder persist across runs (that is the point of a
    /// cache), so a run reports its delta against the baseline captured
    /// when its run state was created. No-op with the cache off.
    pub(super) fn add_cache_delta(&self, base: &CacheBaseline, prefix: &mut PrefixCacheStats) {
        if let Some(cs) = &self.cache {
            prefix.lookups += cs.index.lookups() - base.lookups;
            prefix.hits += cs.index.hits() - base.hits;
            prefix.saved_prefill_tokens += cs.index.saved_tokens() - base.saved_tokens;
            for (tier, slot) in KvTier::ALL.iter().zip(prefix.tiers.iter_mut()) {
                let now = cs.ladder.traffic(*tier);
                let was = &base.traffic[tier.index()];
                slot.demoted_bytes += now.demoted_bytes - was.demoted_bytes;
                slot.recalled_bytes += now.recalled_bytes - was.recalled_bytes;
                slot.demote_seconds += now.demote_seconds - was.demote_seconds;
                slot.recall_seconds += now.recall_seconds - was.recall_seconds;
            }
        }
    }

    /// Drops the ref the request's admission pinned on its prefix entry.
    pub(super) fn release_prefix_hold(&mut self, id: u64) {
        if let Some(cs) = self.cache.as_mut() {
            if let Some(key) = cs.held.remove(&id) {
                let _ = cs.index.release(key);
            }
        }
    }

    /// Parks a preemption victim's ingested KV (`tokens` worth) in the
    /// residency ladder — DRAM if it fits, else the SSD rung — instead of
    /// discarding it, and drops the victim's prefix pin. Returns whether
    /// the ladder took the bytes; `false` (always, with the cache off)
    /// means the caller books the tokens as wasted re-materialization
    /// debt exactly as the pre-cache engine did.
    pub(super) fn demote_victim(&mut self, st: &mut RunState, id: u64, tokens: u64) -> bool {
        let dep = self.deployment;
        let Some(cs) = self.cache.as_mut() else {
            return false;
        };
        if let Some(key) = cs.held.remove(&id) {
            let _ = cs.index.release(key);
        }
        if tokens == 0 {
            return false;
        }
        let bytes = tokens * cs.bytes_per_token;
        for tier in [KvTier::Dram, KvTier::Ssd] {
            if cs.ladder.place(tier, bytes).is_ok() {
                // The ladder's own traffic counters only track index
                // moves; victim KV enters from the serving shards, so
                // its demote I/O is booked here.
                let seconds = cs.ladder.demote_seconds(tier, bytes);
                let t = &mut st.prefix.tiers[tier.index()];
                t.demoted_bytes += bytes;
                t.demote_seconds += seconds;
                st.prefix.victim_demotions += 1;
                cs.demoted.insert(id, DemotedKv { tokens, bytes, tier });
                st.emit(dep, id, EventKind::Demoted { tokens, bytes, tier: tier.index() as u8 });
                return true;
            }
        }
        false
    }

    /// Drops the parked KV of a victim that will never be re-admitted on
    /// this deployment (shed, unplaceable, or re-dispatched to another
    /// deployment): the ladder bytes are freed and the tokens become the
    /// wasted re-materialization debt they would have been without the
    /// cache.
    pub(crate) fn forget_demoted(&mut self, st: &mut RunState, id: u64) {
        if let Some(cs) = self.cache.as_mut() {
            if let Some(d) = cs.demoted.remove(&id) {
                let _ = cs.ladder.evict(d.tier, d.bytes);
                st.wasted_prefill_tokens += d.tokens;
            }
        }
    }

    /// Reuses cached KV for an admission: a preempted victim's demoted
    /// ladder bytes recall in full, else a shared-prefix probe against
    /// the index skips the cached blocks (pinning the entry for the
    /// request's lifetime). Returns `(reused_tokens, recall_seconds)` —
    /// `(0, 0.0)` with the cache off or on a miss.
    pub(super) fn reuse_cached_kv(
        &mut self,
        st: &mut RunState,
        entry: &QueueEntry,
        pf_ctx: u64,
    ) -> (u64, f64) {
        let dep = self.deployment;
        let Some(cs) = self.cache.as_mut() else {
            return (0, 0.0);
        };
        if let Some(d) = cs.demoted.remove(&entry.req.id) {
            let seconds = cs.ladder.recall(d.tier, d.bytes).expect("demoted bytes are resident");
            let tokens = d.tokens.min(pf_ctx);
            st.prefix.victim_recalls += 1;
            st.prefix.recalled_prefill_tokens += tokens;
            st.emit(dep, entry.req.id, EventKind::Recall { bytes: d.bytes, seconds });
            return (tokens, seconds);
        }
        if entry.req.prefix_key == 0 {
            return (0, 0.0);
        }
        let Some((hit, _tier)) = cs.index.probe(entry.req.prefix_key, entry.req.prefix_tokens)
        else {
            return (0, 0.0);
        };
        let seconds = cs.index.recall(entry.req.prefix_key, hit, &mut cs.ladder);
        cs.index.acquire(entry.req.prefix_key).expect("probe just hit this key");
        cs.held.insert(entry.req.id, entry.req.prefix_key);
        let reused = hit.min(pf_ctx);
        st.emit(dep, entry.req.id, EventKind::PrefixHit { reused_tokens: reused });
        if seconds > 0.0 {
            st.emit(
                dep,
                entry.req.id,
                EventKind::Recall { bytes: reused * cs.bytes_per_token, seconds },
            );
        }
        (reused, seconds)
    }

    /// On eviction, drops the request's prefix pin and publishes its
    /// context into the index: the class/system prefix under
    /// `prefix_key`, and the whole finished conversation under
    /// `publish_key` (the entry the session's next turn will hit). No-op
    /// with the cache off.
    pub(super) fn publish_finished(&mut self, req: &Request, emitted: u64) {
        let Some(cs) = self.cache.as_mut() else {
            return;
        };
        if let Some(key) = cs.held.remove(&req.id) {
            let _ = cs.index.release(key);
        }
        if req.publish_key != 0 {
            // The session's full served context — for a follow-up turn
            // this *extends* the entry the next turn will probe.
            cs.index.publish(req.publish_key, req.prompt_len + emitted, &mut cs.ladder);
        }
        if req.prefix_key != 0 && req.prefix_key != req.publish_key {
            // The class/system prefix this request consumed (fresh
            // conversations share it with every sibling session).
            cs.index.publish(req.prefix_key, req.prefix_tokens, &mut cs.ladder);
        }
    }
}
