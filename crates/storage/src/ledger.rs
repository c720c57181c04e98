//! Per-device KV shard accounting for request-level admission.
//!
//! HILOS stripes every sequence's KV (and X) cache across the storage
//! devices. Batch-level capacity checks (`needed ≤ Σ capacity`) are wrong
//! once requests come and go independently: a single full or degraded
//! device gates placement even when the array as a whole has room. The
//! [`KvShardLedger`] tracks, per device, the bytes owned by each live
//! request; admission calls [`KvShardLedger::allocate`], completion calls
//! [`KvShardLedger::release`], and placement is skewed by a per-device
//! bandwidth weight so stragglers hold proportionally less of the stripe.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Static description of one device's shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSpec {
    /// Usable capacity in bytes (after any static reservations).
    pub capacity_bytes: u64,
    /// Relative placement weight — proportional to the device's sustained
    /// read bandwidth so degraded devices hold less of every stripe. A
    /// zero weight excludes the device from placement entirely.
    pub weight: f64,
}

#[derive(Debug, Clone)]
struct ShardState {
    spec: ShardSpec,
    occupied: u64,
}

/// Errors from ledger operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LedgerError {
    /// Not enough free space across placeable devices.
    InsufficientCapacity {
        /// Bytes requested.
        requested: u64,
        /// Bytes free across devices with a non-zero weight.
        free: u64,
    },
    /// The request already holds an allocation.
    DuplicateRequest(u64),
    /// The request holds no allocation.
    UnknownRequest(u64),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::InsufficientCapacity { requested, free } => {
                write!(f, "KV shard allocation of {requested} bytes exceeds {free} free")
            }
            LedgerError::DuplicateRequest(id) => write!(f, "request {id} already allocated"),
            LedgerError::UnknownRequest(id) => write!(f, "request {id} holds no allocation"),
        }
    }
}

impl Error for LedgerError {}

/// Per-device KV shard ledger: live allocations of every admitted request.
///
/// # Examples
///
/// ```
/// use hilos_storage::{KvShardLedger, ShardSpec};
///
/// let mut ledger = KvShardLedger::new(vec![
///     ShardSpec { capacity_bytes: 1000, weight: 1.0 },
///     ShardSpec { capacity_bytes: 1000, weight: 1.0 },
/// ]);
/// let placement = ledger.allocate(7, 600).unwrap();
/// assert_eq!(placement.iter().sum::<u64>(), 600);
/// assert_eq!(ledger.occupied_bytes(0) + ledger.occupied_bytes(1), 600);
/// ledger.release(7).unwrap();
/// assert_eq!(ledger.total_occupied(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct KvShardLedger {
    shards: Vec<ShardState>,
    // BTreeMap keeps iteration (and therefore any derived accounting)
    // deterministic across runs.
    allocations: BTreeMap<u64, Vec<u64>>,
    // Cached aggregates so the admission fast path (`placeable_free` /
    // `can_allocate`, probed on every scheduling decision) is O(1)
    // instead of an O(devices) scan: the free bytes summed over
    // weighted devices, and how many weighted devices are full.
    placeable_free_cached: u64,
    full_weighted: usize,
}

impl KvShardLedger {
    /// Creates a ledger over the given device shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or any weight is negative/non-finite.
    pub fn new(shards: Vec<ShardSpec>) -> Self {
        assert!(!shards.is_empty(), "ledger needs at least one device");
        for s in &shards {
            assert!(s.weight.is_finite() && s.weight >= 0.0, "weight must be finite and >= 0");
        }
        let placeable_free_cached =
            shards.iter().filter(|s| s.weight > 0.0).map(|s| s.capacity_bytes).sum();
        let full_weighted =
            shards.iter().filter(|s| s.weight > 0.0 && s.capacity_bytes == 0).count();
        KvShardLedger {
            shards: shards.into_iter().map(|spec| ShardState { spec, occupied: 0 }).collect(),
            allocations: BTreeMap::new(),
            placeable_free_cached,
            full_weighted,
        }
    }

    /// Applies an occupancy increase of `bytes` on device `i` to the
    /// cached admission aggregates. The caller guarantees `bytes` fits the
    /// device's slack.
    fn charge_cached(&mut self, i: usize, bytes: u64) {
        let s = &mut self.shards[i];
        s.occupied += bytes;
        if bytes > 0 && s.spec.weight > 0.0 {
            self.placeable_free_cached -= bytes;
            if s.occupied >= s.spec.capacity_bytes {
                self.full_weighted += 1;
            }
        }
    }

    /// Applies an occupancy decrease of `bytes` on device `i` to the
    /// cached admission aggregates.
    fn credit_cached(&mut self, i: usize, bytes: u64) {
        let s = &mut self.shards[i];
        if bytes > 0 && s.spec.weight > 0.0 {
            if s.occupied >= s.spec.capacity_bytes {
                self.full_weighted -= 1;
            }
            self.placeable_free_cached += bytes;
        }
        debug_assert!(s.occupied >= bytes, "release exceeds occupancy");
        s.occupied = s.occupied.saturating_sub(bytes);
    }

    /// Uniform ledger: `n` devices of `capacity_bytes` each, equal weight.
    pub fn uniform(n: usize, capacity_bytes: u64) -> Self {
        KvShardLedger::new(vec![ShardSpec { capacity_bytes, weight: 1.0 }; n])
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.shards.len()
    }

    /// Bytes occupied on device `i`.
    pub fn occupied_bytes(&self, i: usize) -> u64 {
        self.shards[i].occupied
    }

    /// Free bytes on device `i`, irrespective of its placement weight
    /// (a weightless device's free space never counts toward
    /// [`KvShardLedger::placeable_free`]).
    pub fn free_bytes(&self, i: usize) -> u64 {
        self.shards[i].spec.capacity_bytes.saturating_sub(self.shards[i].occupied)
    }

    /// Total occupied bytes across the array.
    pub fn total_occupied(&self) -> u64 {
        self.shards.iter().map(|s| s.occupied).sum()
    }

    /// Free bytes across devices that accept placement (non-zero weight).
    ///
    /// O(1): served from an aggregate maintained incrementally by
    /// allocate/release/reserve, so the admission probe issued on every
    /// scheduling decision does not rescan the device array
    /// ([`KvShardLedger::placeable_free_scan`] is the reference scan).
    pub fn placeable_free(&self) -> u64 {
        debug_assert_eq!(self.placeable_free_cached, self.placeable_free_scan());
        self.placeable_free_cached
    }

    /// The O(devices) reference computation of
    /// [`KvShardLedger::placeable_free`] — kept for the admission
    /// micro-benchmark and the cached-aggregate consistency checks.
    pub fn placeable_free_scan(&self) -> u64 {
        self.shards
            .iter()
            .filter(|s| s.spec.weight > 0.0)
            .map(|s| s.spec.capacity_bytes.saturating_sub(s.occupied))
            .sum()
    }

    /// Number of live allocations.
    pub fn live_requests(&self) -> usize {
        self.allocations.len()
    }

    /// Occupancy pressure of device `i`: held bytes over capacity, in
    /// `[0, 1]`. A zero-capacity device reports `1.0` (it can never accept
    /// another byte). Reservations ([`KvShardLedger::reserve_evenly`])
    /// count as held — pressure measures how close the device is to
    /// rejecting placement, whatever is squeezing it.
    pub fn device_pressure(&self, i: usize) -> f64 {
        let s = &self.shards[i];
        if s.spec.capacity_bytes == 0 {
            1.0
        } else {
            s.occupied as f64 / s.spec.capacity_bytes as f64
        }
    }

    /// Aggregate occupancy pressure over placement-eligible (non-zero
    /// weight) devices: total held bytes over total capacity, in `[0, 1]`.
    /// `1.0` when no device accepts placement at all — a fully degraded
    /// deployment looks saturated to a router, which is exactly right.
    pub fn pressure(&self) -> f64 {
        let (mut occ, mut cap) = (0u64, 0u64);
        for s in self.shards.iter().filter(|s| s.spec.weight > 0.0) {
            occ += s.occupied;
            cap += s.spec.capacity_bytes;
        }
        if cap == 0 {
            1.0
        } else {
            occ as f64 / cap as f64
        }
    }

    /// Sum of the devices' placement weights. Weights are proportional to
    /// sustained read bandwidth, so this is the deployment's aggregate
    /// storage bandwidth with degraded/offline devices discounted — the
    /// drain-rate half of a pressure-aware routing score.
    pub fn total_weight(&self) -> f64 {
        self.shards.iter().map(|s| s.spec.weight).sum()
    }

    /// The per-device placement of a live request, if any.
    pub fn allocation(&self, request: u64) -> Option<&[u64]> {
        self.allocations.get(&request).map(Vec::as_slice)
    }

    /// Total bytes a live request holds across the array (the sum of its
    /// per-device placement), if any — what a preemption would free.
    pub fn held_bytes(&self, request: u64) -> Option<u64> {
        self.allocations.get(&request).map(|p| p.iter().sum())
    }

    /// Free bytes per device, in device index order — the scheduling
    /// snapshot's view of admission headroom.
    pub fn free_by_device(&self) -> Vec<u64> {
        (0..self.shards.len()).map(|i| self.free_bytes(i)).collect()
    }

    /// Whether `bytes` could currently be placed (without placing them):
    /// enough placeable free space *and* no full stripe member.
    ///
    /// O(1): both conditions are served from the cached admission
    /// aggregates ([`KvShardLedger::can_allocate_scan`] is the reference
    /// scan).
    pub fn can_allocate(&self, bytes: u64) -> bool {
        debug_assert_eq!(
            self.placeable_free_cached >= bytes && (bytes == 0 || self.full_weighted == 0),
            self.can_allocate_scan(bytes)
        );
        self.placeable_free_cached >= bytes && (bytes == 0 || self.full_weighted == 0)
    }

    /// The O(devices) reference computation of
    /// [`KvShardLedger::can_allocate`] — kept for the admission
    /// micro-benchmark and the cached-aggregate consistency checks.
    pub fn can_allocate_scan(&self, bytes: u64) -> bool {
        self.placeable_free_scan() >= bytes
            && (bytes == 0
                || self
                    .shards
                    .iter()
                    .all(|s| s.spec.weight <= 0.0 || s.occupied < s.spec.capacity_bytes))
    }

    /// Reserves `total` bytes spread evenly across all devices — static
    /// footprints such as storage-resident model weights. Reservations are
    /// not tied to a request and are never released.
    ///
    /// # Errors
    ///
    /// [`LedgerError::InsufficientCapacity`] if any device cannot hold its
    /// even share; no device is modified on failure.
    pub fn reserve_evenly(&mut self, total: u64) -> Result<(), LedgerError> {
        let n = self.shards.len() as u64;
        let per = total.div_ceil(n);
        if let Some(s) = self.shards.iter().find(|s| s.spec.capacity_bytes - s.occupied < per) {
            return Err(LedgerError::InsufficientCapacity {
                requested: per,
                free: s.spec.capacity_bytes.saturating_sub(s.occupied),
            });
        }
        for i in 0..self.shards.len() {
            self.charge_cached(i, per);
        }
        Ok(())
    }

    /// Places `bytes` for `request` across the devices, skewed by weight
    /// and capped by per-device free space, and returns the per-device
    /// placement. Allocation is all-or-nothing: on error no device
    /// changes.
    ///
    /// HILOS partitions the KV cache statically, so every stripe must
    /// span every placement-eligible device: a *full* device with a
    /// positive weight rejects the allocation outright (the stripe would
    /// be missing a member and the per-device sweep could not run at
    /// full bandwidth), whereas a *weightless* (offline) device is simply
    /// excluded from the stripe.
    ///
    /// # Errors
    ///
    /// * [`LedgerError::DuplicateRequest`] if the request is already live.
    /// * [`LedgerError::InsufficientCapacity`] if the placeable devices'
    ///   free space cannot hold `bytes`, or any eligible stripe member is
    ///   already full.
    pub fn allocate(&mut self, request: u64, bytes: u64) -> Result<Vec<u64>, LedgerError> {
        if self.allocations.contains_key(&request) {
            return Err(LedgerError::DuplicateRequest(request));
        }
        if !self.can_allocate(bytes) {
            return Err(LedgerError::InsufficientCapacity {
                requested: bytes,
                free: self.placeable_free_cached,
            });
        }
        let n = self.shards.len();
        let mut placed = vec![0u64; n];
        let mut remaining = bytes;
        // Weighted water-filling: hand every device with slack its weight
        // share of the remainder; devices that hit capacity drop out. Each
        // round places at least one byte, and the proportional shares
        // shrink the remainder geometrically, so this terminates fast.
        while remaining > 0 {
            let mut wsum = 0.0;
            for (i, s) in self.shards.iter().enumerate() {
                if s.spec.weight > 0.0
                    && s.spec.capacity_bytes.saturating_sub(s.occupied + placed[i]) > 0
                {
                    wsum += s.spec.weight;
                }
            }
            debug_assert!(wsum > 0.0, "free-space precondition violated");
            let round = remaining;
            for (s, p) in self.shards.iter().zip(placed.iter_mut()) {
                if remaining == 0 {
                    break;
                }
                let slack = s.spec.capacity_bytes.saturating_sub(s.occupied + *p);
                if s.spec.weight <= 0.0 || slack == 0 {
                    continue;
                }
                let want = ((round as f64 * s.spec.weight / wsum).ceil() as u64).max(1);
                let take = want.min(slack).min(remaining);
                *p += take;
                remaining -= take;
            }
        }
        for (i, &p) in placed.iter().enumerate() {
            self.charge_cached(i, p);
        }
        self.allocations.insert(request, placed.clone());
        Ok(placed)
    }

    /// Releases a request's allocation, returning its former placement.
    ///
    /// # Errors
    ///
    /// [`LedgerError::UnknownRequest`] if the request is not live.
    pub fn release(&mut self, request: u64) -> Result<Vec<u64>, LedgerError> {
        let placed =
            self.allocations.remove(&request).ok_or(LedgerError::UnknownRequest(request))?;
        for (i, &p) in placed.iter().enumerate() {
            self.credit_cached(i, p);
        }
        Ok(placed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_weights_stripe_evenly() {
        let mut l = KvShardLedger::uniform(4, 1 << 20);
        let p = l.allocate(1, 4096).unwrap();
        assert_eq!(p.iter().sum::<u64>(), 4096);
        for &b in &p {
            assert!((900..=1200).contains(&b), "uneven stripe: {p:?}");
        }
    }

    #[test]
    fn degraded_weight_skews_placement() {
        let mut l = KvShardLedger::new(vec![
            ShardSpec { capacity_bytes: 1 << 20, weight: 1.0 },
            ShardSpec { capacity_bytes: 1 << 20, weight: 0.25 },
        ]);
        let p = l.allocate(1, 100_000).unwrap();
        assert!(p[0] > 3 * p[1], "degraded device should hold much less: {p:?}");
        assert_eq!(p[0] + p[1], 100_000);
    }

    #[test]
    fn zero_weight_device_rejects_placement() {
        let mut l = KvShardLedger::new(vec![
            ShardSpec { capacity_bytes: 1000, weight: 1.0 },
            ShardSpec { capacity_bytes: 1000, weight: 0.0 },
        ]);
        let p = l.allocate(1, 800).unwrap();
        assert_eq!(p[1], 0, "weightless device must stay empty");
        // The weightless device's capacity does not count as placeable.
        assert!(matches!(
            l.allocate(2, 500),
            Err(LedgerError::InsufficientCapacity { requested: 500, free: 200 })
        ));
    }

    #[test]
    fn full_stripe_member_rejects_placement() {
        let mut l = KvShardLedger::new(vec![
            ShardSpec { capacity_bytes: 100, weight: 1.0 },
            ShardSpec { capacity_bytes: 10_000, weight: 1.0 },
        ]);
        // A stripe may *fill* a member (capped at its slack)...
        let p = l.allocate(1, 5000).unwrap();
        assert_eq!(p[0], 100, "small device fills");
        assert_eq!(p[1], 4900);
        assert_eq!(l.free_bytes(0), 0);
        // ...but once a weighted member is full, further placements are
        // rejected even though the aggregate has room: the static KV
        // stripe must span every eligible device.
        assert!(!l.can_allocate(1000));
        assert!(matches!(
            l.allocate(2, 1000),
            Err(LedgerError::InsufficientCapacity { requested: 1000, free: 5100 })
        ));
        // Releasing the stripe restores the member and placement resumes.
        l.release(1).unwrap();
        assert!(l.allocate(2, 1000).is_ok());
    }

    #[test]
    fn all_or_nothing_on_failure() {
        let mut l = KvShardLedger::uniform(2, 1000);
        l.allocate(1, 1500).unwrap();
        let before: Vec<u64> = (0..2).map(|i| l.occupied_bytes(i)).collect();
        assert!(l.allocate(2, 600).is_err());
        let after: Vec<u64> = (0..2).map(|i| l.occupied_bytes(i)).collect();
        assert_eq!(before, after, "failed allocation must not mutate");
        assert_eq!(l.live_requests(), 1);
    }

    #[test]
    fn release_restores_space_and_rejects_unknown() {
        let mut l = KvShardLedger::uniform(3, 1000);
        l.allocate(9, 2400).unwrap();
        assert!(!l.can_allocate(700));
        let freed = l.release(9).unwrap();
        assert_eq!(freed.iter().sum::<u64>(), 2400);
        assert_eq!(l.total_occupied(), 0);
        assert!(matches!(l.release(9), Err(LedgerError::UnknownRequest(9))));
        assert!(matches!(
            l.allocate(1, 1).and(l.allocate(1, 1)),
            Err(LedgerError::DuplicateRequest(1))
        ));
    }

    #[test]
    fn held_bytes_and_free_by_device_track_allocations() {
        let mut l = KvShardLedger::uniform(3, 1000);
        assert_eq!(l.held_bytes(4), None);
        assert_eq!(l.free_by_device(), vec![1000, 1000, 1000]);
        let placed = l.allocate(4, 900).unwrap();
        assert_eq!(l.held_bytes(4), Some(900));
        let free = l.free_by_device();
        for (i, &p) in placed.iter().enumerate() {
            assert_eq!(free[i], 1000 - p);
        }
        // Release restores the exact per-device free space — the
        // preempt/re-admit path depends on this round trip.
        l.release(4).unwrap();
        assert_eq!(l.held_bytes(4), None);
        assert_eq!(l.free_by_device(), vec![1000, 1000, 1000]);
    }

    #[test]
    fn pressure_tracks_occupancy_per_device_and_aggregate() {
        let mut l = KvShardLedger::new(vec![
            ShardSpec { capacity_bytes: 1000, weight: 2.0 },
            ShardSpec { capacity_bytes: 3000, weight: 1.0 },
        ]);
        assert_eq!(l.pressure(), 0.0);
        assert_eq!([l.device_pressure(0), l.device_pressure(1)], [0.0, 0.0]);
        assert_eq!(l.total_weight(), 3.0);
        let placed = l.allocate(1, 2000).unwrap();
        // Aggregate: 2000 held of 4000 capacity.
        assert!((l.pressure() - 0.5).abs() < 1e-12);
        for (i, &p) in placed.iter().enumerate() {
            let expect = p as f64 / [1000.0, 3000.0][i];
            assert!((l.device_pressure(i) - expect).abs() < 1e-12, "device {i}");
        }
        // Release restores zero pressure exactly.
        l.release(1).unwrap();
        assert_eq!(l.pressure(), 0.0);
        assert_eq!([l.device_pressure(0), l.device_pressure(1)], [0.0, 0.0]);
    }

    #[test]
    fn pressure_counts_reservations_and_skips_weightless_capacity() {
        let mut l = KvShardLedger::new(vec![
            ShardSpec { capacity_bytes: 1000, weight: 1.0 },
            ShardSpec { capacity_bytes: 1000, weight: 0.0 },
        ]);
        // Static weight reservations squeeze the placeable devices too.
        l.reserve_evenly(1000).unwrap();
        // Aggregate pressure is over placeable capacity only: 500/1000.
        assert!((l.pressure() - 0.5).abs() < 1e-12);
        // Per-device pressure reports every device, weightless included.
        assert_eq!([l.device_pressure(0), l.device_pressure(1)], [0.5, 0.5]);
        // A fully weightless ledger is saturated by definition.
        let dead = KvShardLedger::new(vec![ShardSpec { capacity_bytes: 1000, weight: 0.0 }]);
        assert_eq!(dead.pressure(), 1.0);
        assert_eq!(dead.total_weight(), 0.0);
        // ...as is a zero-capacity device.
        let tiny = KvShardLedger::new(vec![ShardSpec { capacity_bytes: 0, weight: 1.0 }]);
        assert_eq!(tiny.device_pressure(0), 1.0);
        assert_eq!(tiny.pressure(), 1.0);
    }

    #[test]
    fn cached_admission_aggregates_match_the_scan_under_churn() {
        let mut l = KvShardLedger::new(vec![
            ShardSpec { capacity_bytes: 10_000, weight: 1.0 },
            ShardSpec { capacity_bytes: 100, weight: 1.0 },
            ShardSpec { capacity_bytes: 5_000, weight: 0.0 },
            ShardSpec { capacity_bytes: 3_000, weight: 0.25 },
        ]);
        l.reserve_evenly(200).unwrap();
        // A deterministic mix of fills, rejections and releases; after
        // every operation the O(1) answers must match the O(devices) scan
        // for a sweep of probe sizes (including the full-member case).
        let mut live = Vec::new();
        for (i, bytes) in [600u64, 90, 4_000, 12_000, 1, 700].iter().enumerate() {
            if l.allocate(i as u64, *bytes).is_ok() {
                live.push(i as u64);
            }
            for probe in [0, 1, 50, 5_000, 50_000] {
                assert_eq!(l.can_allocate(probe), l.can_allocate_scan(probe), "probe {probe}");
            }
            assert_eq!(l.placeable_free(), l.placeable_free_scan());
        }
        for id in live {
            l.release(id).unwrap();
            assert_eq!(l.placeable_free(), l.placeable_free_scan());
            assert_eq!(l.can_allocate(1), l.can_allocate_scan(1));
        }
        assert_eq!(l.total_occupied(), 200, "only the reservation remains");
    }

    #[test]
    fn reservations_shrink_placeable_space() {
        let mut l = KvShardLedger::uniform(2, 1000);
        l.reserve_evenly(1000).unwrap();
        assert_eq!(l.placeable_free(), 1000);
        assert!(l.reserve_evenly(1200).is_err());
        // Failed reservation left occupancy untouched.
        assert_eq!(l.total_occupied(), 1000);
    }
}
