//! # hilos-metrics — energy, cost and endurance models
//!
//! The derived analyses of the paper's evaluation:
//!
//! * [`energy`] / [`EnergyBreakdown`] — per-component energy integration
//!   (Fig. 17a),
//! * [`tokens_per_second_per_dollar`] — cost efficiency (Fig. 16a),
//! * [`FleetBill`] — fleet-scale billing: reserved vs utilization
//!   accounting and USD per 1k goodput tokens, the elastic-cluster
//!   comparison metric,
//! * [`EnduranceModel`] — PBW-budget endurance and serviceable requests
//!   (Fig. 16b),
//! * [`LatencyStats`] / [`goodput`] — request-level latency order
//!   statistics (TTFT, inter-token, end-to-end) and deadline goodput for
//!   the serving layer, and [`LatencyHistogram`], the exact counted
//!   multiset a serving run keeps its per-step latencies in,
//! * [`PrefillBreakdown`] — where the token-budgeted serving step's time
//!   went: decode, prefill-chunk interference with the running batch, or
//!   prefill stall with nothing decoding,
//! * [`PrefixCacheStats`] — prefix KV-cache reuse accounting: hit rate,
//!   saved prefill tokens, and per-tier demote/recall traffic of the
//!   HBM→DRAM→SSD residency ladder,
//! * [`Table`] — plain-text table rendering used by the `repro` harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod endurance;
mod energy;
mod fleet;
mod latency;
mod prefill;
mod prefix_cache;
mod report;

pub use cost::{normalized_cost_efficiency, tokens_per_second_per_dollar};
pub use endurance::EnduranceModel;
pub use energy::{energy, joules_per_token, ActivitySnapshot, EnergyBreakdown};
pub use fleet::{
    hourly_capex_usd, hourly_cost_usd, provisioned_power_w, FleetBill, SlotBill,
    AMORTIZATION_YEARS, ENERGY_USD_PER_KWH,
};
pub use latency::{
    class_breakdown, fmt_seconds, goodput, ClassReport, ClassSample, LatencyHistogram, LatencyStats,
};
pub use prefill::PrefillBreakdown;
pub use prefix_cache::{PrefixCacheStats, TierTrafficStats};
pub use report::{fmt_bytes, fmt_ratio, Table};
