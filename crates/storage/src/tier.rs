//! Tiered KV residency: the HBM → DRAM → near-storage SSD ladder.
//!
//! Retained KV (cached prefixes, preempted-victim state) does not have to
//! be discarded when the hot tier fills — it can be *demoted* one rung
//! down the ladder and *recalled* later. The ladder prices both moves
//! with the storage crate's device model: DRAM staging moves at the
//! host-interconnect bandwidth, and the SSD rung splits bytes evenly
//! across the array (the busiest device serves `ceil(bytes / devices)`),
//! pays the device's fixed command latency, and charges the NAND write
//! amplification of its 256 KiB spill writes
//! ([`SsdSpec::write_amplification`], the §4.3 sub-page pathology).
//! Demotions run on the side channel (they are not on any request's
//! critical path); recalls are — the serving layer charges recall seconds
//! straight into TTFT.

use crate::SsdSpec;
use std::error::Error;
use std::fmt;

/// Host-interconnect bandwidth of the DRAM rung, bytes/s (PCIe class).
const DRAM_BW: f64 = 25.0e9;
/// HBM read-out bandwidth for hot-tier recalls, bytes/s.
const HBM_BW: f64 = 1.5e12;
/// Granularity of SSD-rung spill writes, bytes. It is page-aligned, so
/// only a demote smaller than one chunk, written whole, can pay sub-page
/// write amplification.
const SPILL_CHUNK: u64 = 256 * 1024;

/// One rung of the KV residency ladder, hottest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KvTier {
    /// Device HBM — KV is immediately usable by the compute kernels.
    Hbm,
    /// Host DRAM staging — one interconnect hop away.
    Dram,
    /// The near-storage SSD array — striped, command latency + NAND costs.
    Ssd,
}

impl KvTier {
    /// All tiers, hottest first.
    pub const ALL: [KvTier; 3] = [KvTier::Hbm, KvTier::Dram, KvTier::Ssd];

    /// The next-colder rung, if any.
    pub fn below(self) -> Option<KvTier> {
        match self {
            KvTier::Hbm => Some(KvTier::Dram),
            KvTier::Dram => Some(KvTier::Ssd),
            KvTier::Ssd => None,
        }
    }

    /// Dense index (0 = HBM, 1 = DRAM, 2 = SSD).
    pub fn index(self) -> usize {
        match self {
            KvTier::Hbm => 0,
            KvTier::Dram => 1,
            KvTier::Ssd => 2,
        }
    }

    /// Human-readable tier name.
    pub fn label(self) -> &'static str {
        match self {
            KvTier::Hbm => "hbm",
            KvTier::Dram => "dram",
            KvTier::Ssd => "ssd",
        }
    }
}

impl fmt::Display for KvTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Errors from ladder operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TierError {
    /// The destination tier cannot hold the bytes.
    InsufficientCapacity {
        /// Destination tier.
        tier: KvTier,
        /// Bytes requested.
        requested: u64,
        /// Bytes free on that tier.
        free: u64,
    },
    /// The source tier does not hold that many bytes.
    InsufficientResidency {
        /// Source tier.
        tier: KvTier,
        /// Bytes requested to move/evict.
        requested: u64,
        /// Bytes actually resident on that tier.
        held: u64,
    },
    /// The move has nowhere to go (demotion below the SSD rung).
    NoLowerTier,
}

impl fmt::Display for TierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TierError::InsufficientCapacity { tier, requested, free } => {
                write!(f, "{tier} tier cannot hold {requested} bytes ({free} free)")
            }
            TierError::InsufficientResidency { tier, requested, held } => {
                write!(f, "{tier} tier holds {held} bytes, cannot move {requested}")
            }
            TierError::NoLowerTier => write!(f, "no tier below the SSD rung"),
        }
    }
}

impl Error for TierError {}

/// Per-tier demote/recall traffic accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierTraffic {
    /// Bytes demoted *into* this tier from the rung above.
    pub demoted_bytes: u64,
    /// Bytes recalled *out of* this tier toward the hot end.
    pub recalled_bytes: u64,
    /// Seconds of side-channel demote I/O into this tier.
    pub demote_seconds: f64,
    /// Seconds of critical-path recall I/O out of this tier.
    pub recall_seconds: f64,
}

/// The tiered KV residency ladder: capacity accounting per rung plus the
/// priced demote/recall byte costs.
///
/// # Examples
///
/// ```
/// use hilos_storage::{KvTier, KvTierLadder, SsdSpec};
///
/// let mut ladder = KvTierLadder::new(1 << 30, 8 << 30, SsdSpec::smartssd_nvme(), 8);
/// ladder.place(KvTier::Hbm, 1 << 20)?;
/// let demote_s = ladder.demote(KvTier::Hbm, 1 << 20)?;
/// assert!(demote_s > 0.0);
/// assert_eq!(ladder.occupied(KvTier::Dram), 1 << 20);
/// let recall_s = ladder.recall(KvTier::Dram, 1 << 20)?;
/// assert!(recall_s > 0.0);
/// assert_eq!(ladder.total_occupied(), 0);
/// # Ok::<(), hilos_storage::TierError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KvTierLadder {
    capacity: [u64; 3],
    occupied: [u64; 3],
    ssd: SsdSpec,
    /// Drives in the SSD rung's array.
    devices: u64,
    traffic: [TierTraffic; 3],
}

impl KvTierLadder {
    /// Builds a ladder with the given HBM/DRAM rung capacities over an SSD
    /// rung of `devices` drives of `ssd`'s description. The SSD rung's
    /// capacity is the array's aggregate. The DRAM rung moves at a
    /// PCIe-class 25 GB/s, HBM reads out at 1.5 TB/s, and demoted bytes are
    /// written in page-aligned 256 KiB spill chunks; all three are fixed.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero.
    pub fn new(hbm_bytes: u64, dram_bytes: u64, ssd: SsdSpec, devices: usize) -> Self {
        assert!(devices > 0, "ladder needs at least one SSD");
        let ssd_capacity = ssd.capacity_bytes().saturating_mul(devices as u64);
        KvTierLadder {
            capacity: [hbm_bytes, dram_bytes, ssd_capacity],
            occupied: [0; 3],
            ssd,
            devices: devices as u64,
            traffic: [TierTraffic::default(); 3],
        }
    }

    /// Capacity of a tier in bytes.
    pub fn capacity(&self, tier: KvTier) -> u64 {
        self.capacity[tier.index()]
    }

    /// Bytes resident on a tier.
    pub fn occupied(&self, tier: KvTier) -> u64 {
        self.occupied[tier.index()]
    }

    /// Free bytes on a tier.
    pub fn free(&self, tier: KvTier) -> u64 {
        self.capacity[tier.index()].saturating_sub(self.occupied[tier.index()])
    }

    /// Total bytes resident across all tiers.
    pub fn total_occupied(&self) -> u64 {
        self.occupied.iter().sum()
    }

    /// Demote/recall traffic accounting for a tier.
    pub fn traffic(&self, tier: KvTier) -> TierTraffic {
        self.traffic[tier.index()]
    }

    /// Seconds to demote `bytes` one rung down *into* `to`. DRAM staging
    /// moves at the host-interconnect bandwidth; the SSD rung splits the
    /// bytes evenly across the array, pays the device command latency
    /// once, and programs the busiest device's `ceil(bytes / devices)` at
    /// the write bandwidth with the spill-granularity write amplification
    /// applied.
    pub fn demote_seconds(&self, to: KvTier, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        match to {
            KvTier::Hbm => 0.0,
            KvTier::Dram => bytes as f64 / DRAM_BW,
            KvTier::Ssd => {
                let waf = self.ssd.write_amplification(SPILL_CHUNK.min(bytes));
                self.ssd.cmd_latency().as_secs_f64()
                    + bytes.div_ceil(self.devices) as f64 * waf / self.ssd.seq_write_bw()
            }
        }
    }

    /// Seconds to recall `bytes` *out of* `from` back to the hot end: the
    /// source rung's read cost plus the DRAM hop for SSD-resident bytes.
    /// HBM-resident bytes only pay the HBM read-out.
    pub fn recall_seconds(&self, from: KvTier, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        match from {
            KvTier::Hbm => bytes as f64 / HBM_BW,
            KvTier::Dram => bytes as f64 / DRAM_BW,
            KvTier::Ssd => {
                self.ssd.cmd_latency().as_secs_f64()
                    + bytes.div_ceil(self.devices) as f64 / self.ssd.seq_read_bw()
                    + bytes as f64 / DRAM_BW
            }
        }
    }

    /// Makes `bytes` resident on `tier` (new entry into the ladder).
    ///
    /// # Errors
    ///
    /// [`TierError::InsufficientCapacity`] if the tier lacks room; the
    /// ladder is unchanged on failure.
    pub fn place(&mut self, tier: KvTier, bytes: u64) -> Result<(), TierError> {
        let free = self.free(tier);
        if free < bytes {
            return Err(TierError::InsufficientCapacity { tier, requested: bytes, free });
        }
        self.occupied[tier.index()] += bytes;
        Ok(())
    }

    /// Removes `bytes` of residency from `tier` (KV leaves the ladder —
    /// evicted outright or re-materialized into the serving shards).
    ///
    /// # Errors
    ///
    /// [`TierError::InsufficientResidency`] if the tier holds fewer bytes.
    pub fn evict(&mut self, tier: KvTier, bytes: u64) -> Result<(), TierError> {
        let held = self.occupied[tier.index()];
        if held < bytes {
            return Err(TierError::InsufficientResidency { tier, requested: bytes, held });
        }
        self.occupied[tier.index()] = held - bytes;
        Ok(())
    }

    /// Moves `bytes` one rung down from `from` and returns the priced
    /// side-channel seconds of the demote I/O.
    ///
    /// # Errors
    ///
    /// * [`TierError::NoLowerTier`] if `from` is the SSD rung.
    /// * [`TierError::InsufficientResidency`] if `from` holds fewer bytes.
    /// * [`TierError::InsufficientCapacity`] if the rung below lacks room.
    ///
    /// The ladder is unchanged on failure.
    pub fn demote(&mut self, from: KvTier, bytes: u64) -> Result<f64, TierError> {
        let to = from.below().ok_or(TierError::NoLowerTier)?;
        let held = self.occupied[from.index()];
        if held < bytes {
            return Err(TierError::InsufficientResidency { tier: from, requested: bytes, held });
        }
        let free = self.free(to);
        if free < bytes {
            return Err(TierError::InsufficientCapacity { tier: to, requested: bytes, free });
        }
        self.occupied[from.index()] -= bytes;
        self.occupied[to.index()] += bytes;
        let seconds = self.demote_seconds(to, bytes);
        let t = &mut self.traffic[to.index()];
        t.demoted_bytes += bytes;
        t.demote_seconds += seconds;
        Ok(seconds)
    }

    /// Recalls `bytes` out of `from` entirely (back into the serving
    /// shards) and returns the priced critical-path seconds.
    ///
    /// # Errors
    ///
    /// [`TierError::InsufficientResidency`] if `from` holds fewer bytes.
    pub fn recall(&mut self, from: KvTier, bytes: u64) -> Result<f64, TierError> {
        self.evict(from, bytes)?;
        let seconds = self.recall_seconds(from, bytes);
        let t = &mut self.traffic[from.index()];
        t.recalled_bytes += bytes;
        t.recall_seconds += seconds;
        Ok(seconds)
    }

    /// Prices a critical-path read of `bytes` out of `from` *without*
    /// moving any residency — a read-through recall for bytes that stay
    /// where they are (e.g. a pinned-tier prefix hit). Counts toward the
    /// tier's recall traffic.
    pub fn read_out(&mut self, from: KvTier, bytes: u64) -> f64 {
        let seconds = self.recall_seconds(from, bytes);
        let t = &mut self.traffic[from.index()];
        t.recalled_bytes += bytes;
        t.recall_seconds += seconds;
        seconds
    }

    /// Moves `bytes` from `from` up to the HBM rung (a recall that stays
    /// inside the ladder — cached prefixes promote on reuse) and returns
    /// the priced critical-path seconds. A no-op (0 seconds of I/O, only
    /// the HBM read-out) when `from` is already HBM.
    ///
    /// # Errors
    ///
    /// * [`TierError::InsufficientResidency`] if `from` holds fewer bytes.
    /// * [`TierError::InsufficientCapacity`] if HBM lacks room.
    pub fn promote_to_hbm(&mut self, from: KvTier, bytes: u64) -> Result<f64, TierError> {
        if from == KvTier::Hbm {
            return Ok(self.recall_seconds(KvTier::Hbm, bytes));
        }
        let held = self.occupied[from.index()];
        if held < bytes {
            return Err(TierError::InsufficientResidency { tier: from, requested: bytes, held });
        }
        let free = self.free(KvTier::Hbm);
        if free < bytes {
            return Err(TierError::InsufficientCapacity {
                tier: KvTier::Hbm,
                requested: bytes,
                free,
            });
        }
        self.occupied[from.index()] -= bytes;
        self.occupied[KvTier::Hbm.index()] += bytes;
        let seconds = self.recall_seconds(from, bytes);
        let t = &mut self.traffic[from.index()];
        t.recalled_bytes += bytes;
        t.recall_seconds += seconds;
        Ok(seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> KvTierLadder {
        KvTierLadder::new(1 << 20, 4 << 20, SsdSpec::smartssd_nvme(), 4)
    }

    #[test]
    fn tier_order_and_labels() {
        assert_eq!(KvTier::Hbm.below(), Some(KvTier::Dram));
        assert_eq!(KvTier::Dram.below(), Some(KvTier::Ssd));
        assert_eq!(KvTier::Ssd.below(), None);
        assert_eq!(KvTier::ALL.map(KvTier::index), [0, 1, 2]);
        assert_eq!(KvTier::Ssd.to_string(), "ssd");
    }

    #[test]
    fn place_demote_recall_round_trip_conserves_bytes() {
        let mut l = ladder();
        l.place(KvTier::Hbm, 600_000).unwrap();
        assert_eq!(l.total_occupied(), 600_000);
        let d = l.demote(KvTier::Hbm, 600_000).unwrap();
        assert!(d > 0.0);
        assert_eq!(l.occupied(KvTier::Hbm), 0);
        assert_eq!(l.occupied(KvTier::Dram), 600_000);
        let d2 = l.demote(KvTier::Dram, 600_000).unwrap();
        assert!(d2 > d, "NAND demote is costlier than the DRAM hop: {d2} vs {d}");
        assert_eq!(l.occupied(KvTier::Ssd), 600_000);
        assert_eq!(l.total_occupied(), 600_000);
        let r = l.recall(KvTier::Ssd, 600_000).unwrap();
        assert!(r > 0.0);
        assert_eq!(l.total_occupied(), 0);
        let t = l.traffic(KvTier::Ssd);
        assert_eq!(t.demoted_bytes, 600_000);
        assert_eq!(t.recalled_bytes, 600_000);
    }

    #[test]
    fn capacity_and_residency_are_enforced() {
        let mut l = ladder();
        assert!(matches!(
            l.place(KvTier::Hbm, (1 << 20) + 1),
            Err(TierError::InsufficientCapacity { tier: KvTier::Hbm, .. })
        ));
        l.place(KvTier::Hbm, 1 << 20).unwrap();
        assert_eq!(l.free(KvTier::Hbm), 0);
        assert!(matches!(
            l.demote(KvTier::Hbm, (1 << 20) + 1),
            Err(TierError::InsufficientResidency { .. })
        ));
        l.place(KvTier::Ssd, 1).unwrap();
        assert!(matches!(l.demote(KvTier::Ssd, 1), Err(TierError::NoLowerTier)));
        assert!(matches!(l.evict(KvTier::Dram, 1), Err(TierError::InsufficientResidency { .. })));
    }

    #[test]
    fn ssd_demote_prices_stripe_latency_and_waf() {
        let spec = SsdSpec::smartssd_nvme();
        let l = KvTierLadder::new(1 << 30, 1 << 30, spec, 4);
        let cmd = spec.cmd_latency().as_secs_f64();
        let bytes = 64 * 1024 * 1024u64;
        // Page-aligned 256 KiB spill chunks: WAF 1, so the demote is the
        // command latency plus the per-device stripe share at write bw.
        let expect = cmd + (bytes as f64 / 4.0) / spec.seq_write_bw();
        assert!((l.demote_seconds(KvTier::Ssd, bytes) - expect).abs() < 1e-12);
        // An uneven stripe: the busiest device serves the rounded-up share.
        let uneven = bytes + 3;
        let expect = cmd + uneven.div_ceil(4) as f64 / spec.seq_write_bw();
        assert_eq!(l.demote_seconds(KvTier::Ssd, uneven), expect);
        // A 256-byte demote is a sub-page write with WAF 16 (§4.3): the
        // busiest device's 64 bytes cost 16 x 64 at the write bandwidth.
        let expect = cmd + (16 * 64) as f64 / spec.seq_write_bw();
        assert_eq!(l.demote_seconds(KvTier::Ssd, 256), expect);
        // Recall reads the stripe and pays the DRAM hop on top.
        let read = cmd + (bytes as f64 / 4.0) / spec.seq_read_bw() + bytes as f64 / 25.0e9;
        assert!((l.recall_seconds(KvTier::Ssd, bytes) - read).abs() < 1e-12);
        // The ladder is ordered: recalls get cheaper toward the hot end.
        assert!(l.recall_seconds(KvTier::Dram, bytes) < l.recall_seconds(KvTier::Ssd, bytes));
        assert!(l.recall_seconds(KvTier::Hbm, bytes) < l.recall_seconds(KvTier::Dram, bytes));
        assert_eq!(l.recall_seconds(KvTier::Ssd, 0), 0.0);
        assert_eq!(l.demote_seconds(KvTier::Ssd, 0), 0.0);
    }

    #[test]
    fn promote_to_hbm_moves_up_and_prices_the_source() {
        let mut l = ladder();
        l.place(KvTier::Ssd, 100_000).unwrap();
        let s = l.promote_to_hbm(KvTier::Ssd, 100_000).unwrap();
        assert!(s > 0.0);
        assert_eq!(l.occupied(KvTier::Hbm), 100_000);
        assert_eq!(l.occupied(KvTier::Ssd), 0);
        // Already-hot bytes pay only the HBM read-out.
        let hot = l.promote_to_hbm(KvTier::Hbm, 100_000).unwrap();
        assert!(hot < s);
        assert_eq!(l.occupied(KvTier::Hbm), 100_000);
        // HBM room is required.
        l.place(KvTier::Dram, 1 << 20).unwrap();
        assert!(matches!(
            l.promote_to_hbm(KvTier::Dram, 1 << 20),
            Err(TierError::InsufficientCapacity { tier: KvTier::Hbm, .. })
        ));
    }
}
