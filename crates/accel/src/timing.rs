//! Cycle-level timing model of the attention accelerator.
//!
//! The hardware processes the context in 128-token blocks through a
//! four-unit pipeline (Fig. 7a). In steady state the block latency is the
//! maximum of:
//!
//! * **memory time** — the K and V tiles plus the score spill/reload
//!   traffic through the 4 GB on-board DDR4 (the dominant term: the design
//!   is DRAM-bandwidth bound, §5.4),
//! * **MAC time** — the two blocked GEMVs on `d_group × 128` MAC lanes,
//! * **softmax time** — two passes of exponentials at an unroll factor
//!   of 2 (§5.4).
//!
//! A single calibrated constant — the pipeline efficiency against raw DRAM
//! bandwidth — reproduces the measured Table 3 GFLOPS for all three
//! `d_group` configurations (pinned by the `table3_gflops_shape` test below;
//! `repro table3` prints model and paper side by side).

use crate::kernel::BLOCK_TOKENS;

/// Configuration of the accelerator instance being modeled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelTimingModel {
    /// Clock frequency in Hz (296.05 MHz on the SmartSSD's KU15P).
    pub freq_hz: f64,
    /// Off-chip DRAM bandwidth in bytes/s (DDR4-2400 ×64 ⇒ 19.2 GB/s).
    pub dram_bw: f64,
    /// MAC units per query lane (128, saturating the DRAM interface §5.4).
    pub macs_per_lane: u32,
    /// Query-group size (1 for MHA; `heads/kv_heads` for GQA).
    pub d_group: u32,
    /// Exponential-unit loop unroll factor (2, §5.4).
    pub exp_unroll: u32,
    /// Fraction of raw DRAM bandwidth the pipeline sustains (calibrated to
    /// Table 3: ≈ 0.66 across all kernels).
    pub pipeline_efficiency: f64,
    /// Softmax passes over the score vector (2 = the paper's Algorithm 1;
    /// 3 = the conventional max/sum/normalize baseline it replaces).
    pub score_passes: u32,
    /// Fixed per-invocation overhead in seconds (OpenCL kernel launch +
    /// pipeline fill).
    pub launch_overhead_s: f64,
}

impl AccelTimingModel {
    /// The SmartSSD configuration of the paper for a given group size.
    ///
    /// # Panics
    ///
    /// Panics if `d_group` is zero.
    pub fn smartssd(d_group: u32) -> Self {
        assert!(d_group > 0, "d_group must be positive");
        AccelTimingModel {
            freq_hz: 296.05e6,
            dram_bw: 19.2e9,
            macs_per_lane: 128,
            d_group,
            exp_unroll: 2,
            pipeline_efficiency: 0.66,
            score_passes: 2,
            launch_overhead_s: 30e-6,
        }
    }

    /// Pads a token count to the AXI burst granularity of 32 (§5.4).
    pub fn padded_tokens(&self, s: u64) -> u64 {
        s.div_ceil(32) * 32
    }

    /// DRAM bytes touched per 128-token block: K tile + V tile (FP16) plus
    /// the score tile spilled after pass 1 and reloaded for pass 2 and the
    /// score-value product (FP32, `d_group` query lanes).
    pub fn bytes_per_block(&self, head_dim: u32) -> f64 {
        let kv = 2.0 * (BLOCK_TOKENS as f64) * head_dim as f64 * 2.0;
        // Each softmax pass spills and reloads the score tile once.
        let transactions = 2.0 * self.score_passes as f64;
        let scores = transactions * self.d_group as f64 * BLOCK_TOKENS as f64 * 4.0;
        kv + scores
    }

    /// FLOPs per block: the query-key and score-value GEMVs for every
    /// query in the group (2 FLOPs per MAC).
    pub fn flops_per_block(&self, head_dim: u32) -> f64 {
        4.0 * self.d_group as f64 * BLOCK_TOKENS as f64 * head_dim as f64
    }

    fn block_seconds(&self, head_dim: u32) -> f64 {
        let mem = self.bytes_per_block(head_dim) / (self.dram_bw * self.pipeline_efficiency);
        let mac_peak = 2.0 * self.macs_per_lane as f64 * self.d_group as f64 * self.freq_hz;
        let compute = self.flops_per_block(head_dim) / mac_peak;
        let softmax_cycles = self.score_passes as f64 * (self.d_group as f64 * BLOCK_TOKENS as f64)
            / self.exp_unroll as f64
            + 16.0;
        let softmax = softmax_cycles / self.freq_hz;
        mem.max(compute).max(softmax)
    }

    /// Time to run attention for `n_groups` query groups (batch × KV heads
    /// assigned to this device) over an `s`-token context.
    pub fn kernel_seconds(&self, s: u64, head_dim: u32, n_groups: u64) -> f64 {
        if s == 0 || n_groups == 0 {
            return 0.0;
        }
        let padded = self.padded_tokens(s);
        let blocks = padded.div_ceil(BLOCK_TOKENS as u64);
        self.launch_overhead_s + blocks as f64 * n_groups as f64 * self.block_seconds(head_dim)
    }

    /// Sustained arithmetic throughput in GFLOPS for a long-context kernel
    /// (the Table 3 "Peak Perf." column).
    pub fn sustained_gflops(&self, head_dim: u32) -> f64 {
        self.flops_per_block(head_dim) / self.block_seconds(head_dim) / 1e9
    }

    /// Sustained KV-cache consumption in bytes/s (the Fig. 12a kernel
    /// bars): how fast the kernel drains K/V data fed from storage.
    pub fn kv_bytes_per_sec(&self, head_dim: u32) -> f64 {
        let kv_bytes = 2.0 * (BLOCK_TOKENS as f64) * head_dim as f64 * 2.0;
        kv_bytes / self.block_seconds(head_dim)
    }

    /// Total DRAM traffic of a kernel invocation in bytes.
    pub fn dram_bytes(&self, s: u64, head_dim: u32, n_groups: u64) -> f64 {
        let padded = self.padded_tokens(s);
        let blocks = padded.div_ceil(BLOCK_TOKENS as u64);
        blocks as f64 * n_groups as f64 * self.bytes_per_block(head_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_gflops_shape() {
        // Paper Table 3: 11.9 / 46.8 / 56.3 GFLOPS for d_group 1 / 4 / 5.
        let g1 = AccelTimingModel::smartssd(1).sustained_gflops(128);
        let g4 = AccelTimingModel::smartssd(4).sustained_gflops(128);
        let g5 = AccelTimingModel::smartssd(5).sustained_gflops(128);
        assert!((g1 - 11.9).abs() / 11.9 < 0.10, "d=1: {g1}");
        assert!((g4 - 46.8).abs() / 46.8 < 0.10, "d=4: {g4}");
        assert!((g5 - 56.3).abs() / 56.3 < 0.10, "d=5: {g5}");
        // Monotone in d_group, sub-linear (shared-KV efficiency tapers).
        assert!(g4 > g1 && g5 > g4);
        assert!(g5 / g1 < 5.0);
    }

    #[test]
    fn kernels_exceed_ssd_p2p_bandwidth() {
        // Fig 12a: every kernel drains KV faster than the 3.2 GB/s SSD
        // feed, so the attention stays storage-bound.
        for d in [1, 4, 5] {
            let bw = AccelTimingModel::smartssd(d).kv_bytes_per_sec(128);
            assert!(bw > 3.2e9, "d_group={d}: {bw}");
        }
        // GQA kernels are slightly slower per KV byte than MHA.
        let mha = AccelTimingModel::smartssd(1).kv_bytes_per_sec(128);
        let gqa5 = AccelTimingModel::smartssd(5).kv_bytes_per_sec(128);
        assert!(gqa5 < mha);
        assert!(gqa5 > mha * 0.75, "GQA should be only slightly lower");
    }

    #[test]
    fn kernel_time_scales_linearly_with_context() {
        let m = AccelTimingModel::smartssd(1);
        let t32k = m.kernel_seconds(32 * 1024, 128, 1);
        let t64k = m.kernel_seconds(64 * 1024, 128, 1);
        let ratio = (t64k - m.launch_overhead_s) / (t32k - m.launch_overhead_s);
        assert!((ratio - 2.0).abs() < 0.01, "ratio={ratio}");
    }

    #[test]
    fn padding_to_axi_bursts() {
        let m = AccelTimingModel::smartssd(1);
        assert_eq!(m.padded_tokens(1), 32);
        assert_eq!(m.padded_tokens(32), 32);
        assert_eq!(m.padded_tokens(33), 64);
        // Padded sequences cost the same as their padded length.
        assert_eq!(m.kernel_seconds(97, 128, 1), m.kernel_seconds(128, 128, 1));
    }

    #[test]
    fn zero_work_costs_nothing() {
        let m = AccelTimingModel::smartssd(4);
        assert_eq!(m.kernel_seconds(0, 128, 16), 0.0);
        assert_eq!(m.kernel_seconds(1024, 128, 0), 0.0);
    }

    #[test]
    fn memory_bound_regime() {
        // At d_group=1 the block is memory-bound: raising DRAM bandwidth
        // raises throughput nearly proportionally.
        let mut fast = AccelTimingModel::smartssd(1);
        fast.dram_bw *= 2.0;
        let base = AccelTimingModel::smartssd(1).sustained_gflops(128);
        let doubled = fast.sustained_gflops(128);
        assert!(doubled / base > 1.9);
    }

    #[test]
    fn dram_traffic_accounting() {
        let m = AccelTimingModel::smartssd(1);
        // One block, one group: K+V = 128*128*2*2 = 65536 B, scores 2 KiB.
        let bytes = m.dram_bytes(128, 128, 1);
        assert!((bytes - (65536.0 + 2048.0)).abs() < 1.0);
    }
}
