//! # hilos-storage — SSD, NAND flash, and tiered KV residency
//!
//! The storage substrate of the HILOS reproduction: the device physics at
//! the bottom, request-level KV accounting in the middle, and the tiered
//! prefix-reuse layer on top.
//!
//! ## Device models
//!
//! * [`SsdSpec`] — datasheet-level device descriptions (bandwidths, page
//!   size, command latency, endurance budget) with presets for the paper's
//!   devices: the Samsung PM9A3 baseline SSD and the NVMe SSD inside a
//!   SmartSSD, and the **write amplification** of sub-page writes that
//!   motivates the paper's delayed KV-cache writeback (§4.3),
//! * [`SsdInstance`] — the adapter that materializes a device's read/write
//!   channels as [`hilos_sim`] resources and emits transfer tasks.
//!
//! Endurance wear is not a device model here: a serving campaign in
//! `hilos-core` keeps the NAND bytes each device programmed and divides
//! by [`SsdSpec::endurance_bytes`].
//!
//! ## KV accounting and the residency ladder
//!
//! * [`KvShardLedger`] — per-device KV shard accounting for request-level
//!   admission: `allocate`/`release` per request across the striped
//!   devices, with bandwidth-weighted placement that skews away from
//!   degraded devices. The admission probes
//!   ([`KvShardLedger::can_allocate`] /
//!   [`KvShardLedger::placeable_free`]) scan the device array, which is
//!   4–16 devices in the modeled systems.
//! * [`KvTierLadder`] — the HBM → DRAM → near-storage SSD residency
//!   ladder for *retained* KV. Every rung has explicit capacity, and
//!   moving bytes between rungs is priced by the device models above:
//!   DRAM staging at the host-interconnect bandwidth, the SSD rung as a
//!   transfer split evenly across the array, paying command latency and
//!   the NAND write amplification of its spill granularity. Demotions are
//!   side-channel I/O; recalls are critical-path seconds the serving
//!   layer charges straight into TTFT.
//! * [`PrefixCacheIndex`] — content-keyed, block-granular prefix KV
//!   entries over the ladder: refcounted while live requests read them,
//!   LRU within each tier, demoted rung by rung (and evicted off the
//!   bottom) under capacity pressure instead of being discarded. A probe
//!   answers how many prefill tokens a request can skip and what the
//!   recall of that prefix costs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod ledger;
mod nand;
mod prefix;
mod spec;
mod tier;

pub use device::SsdInstance;
pub use ledger::{KvShardLedger, LedgerError, ShardSpec};
pub use nand::NandGeometry;
pub use prefix::{PrefixCacheIndex, PrefixError};
pub use spec::SsdSpec;
pub use tier::{KvTier, KvTierLadder, TierError, TierTraffic};
