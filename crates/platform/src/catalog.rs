//! Device catalog: datasheet numbers, prices and power draws for every
//! component of the paper's testbeds (Table 1 and §6.6).
//!
//! Bandwidth figures are *effective* (measured-style) rather than
//! theoretical peaks; prices come from the paper's cost analysis
//! (Fig. 16a); power figures from §6.6 / NVML / RAPL-class numbers.

use hilos_interconnect::{LinkSpec, PcieGen};

/// Idle and active power of one component, in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSpec {
    /// Power when idle.
    pub idle_w: f64,
    /// Power when fully busy (linear interpolation in between).
    pub active_w: f64,
}

impl PowerSpec {
    /// Average power at a utilization in `[0, 1]`.
    pub fn at_utilization(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        self.idle_w + (self.active_w - self.idle_w) * u
    }
}

/// A GPU model.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Effective FP16 GEMM throughput in FLOP/s (sustained, not peak).
    pub fp16_flops: f64,
    /// HBM bandwidth in bytes/s.
    pub hbm_bw: f64,
    /// Device memory capacity in bytes.
    pub mem_bytes: u64,
    /// Host link.
    pub link: LinkSpec,
    /// Street price in USD (paper's cost analysis).
    pub price_usd: f64,
    /// Power envelope.
    pub power: PowerSpec,
}

impl GpuSpec {
    /// NVIDIA A100 40 GB (PCIe) — the paper's default GPU, $7,000.
    pub fn a100_40g() -> Self {
        GpuSpec {
            name: "A100-40G",
            // Large-GEMM tensor-core regime: ~93% of the 312 TFLOPS peak
            // (the X-cache regeneration is exactly such a GEMM, §4.2).
            fp16_flops: 290e12,
            hbm_bw: 1.555e12,
            mem_bytes: 40 << 30,
            link: LinkSpec::new(PcieGen::Gen4, 16),
            price_usd: 7_000.0,
            power: PowerSpec { idle_w: 55.0, active_w: 300.0 },
        }
    }

    /// NVIDIA H100 80 GB — the $30,000 upgrade of Fig. 16a.
    pub fn h100_80g() -> Self {
        GpuSpec {
            name: "H100-80G",
            fp16_flops: 700e12,
            hbm_bw: 3.35e12,
            mem_bytes: 80 << 30,
            link: LinkSpec::new(PcieGen::Gen5, 16),
            price_usd: 30_000.0,
            power: PowerSpec { idle_w: 70.0, active_w: 500.0 },
        }
    }

    /// NVIDIA RTX A6000 48 GB — the multi-node vLLM baseline GPU
    /// (Fig. 17b).
    pub fn a6000_48g() -> Self {
        GpuSpec {
            name: "A6000-48G",
            fp16_flops: 120e12,
            hbm_bw: 768e9,
            mem_bytes: 48 << 30,
            link: LinkSpec::new(PcieGen::Gen4, 16),
            price_usd: 4_500.0,
            power: PowerSpec { idle_w: 25.0, active_w: 280.0 },
        }
    }
}

/// The host platform: CPU, DRAM, chassis.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpec {
    /// Description.
    pub name: &'static str,
    /// Effective CPU throughput for attention GEMV work, FLOP/s.
    pub cpu_flops: f64,
    /// Host DRAM capacity in bytes (16 × 32 GB in Table 1).
    pub dram_bytes: u64,
    /// Host DRAM bandwidth in bytes/s (16 channels DDR4-3200).
    pub dram_bw: f64,
    /// Server price (chassis + CPU + DRAM), USD.
    pub price_usd: f64,
    /// CPU package power.
    pub cpu_power: PowerSpec,
    /// DRAM power (all DIMMs).
    pub dram_power: PowerSpec,
}

impl HostSpec {
    /// The paper's host: Xeon Gold 6342 (24C/48T), 512 GB DDR4-3200,
    /// $15,000 server.
    pub fn xeon_512g() -> Self {
        HostSpec {
            name: "Xeon-6342-512G",
            cpu_flops: 1.5e12,
            dram_bytes: 512 << 30,
            dram_bw: 200e9,
            price_usd: 15_000.0,
            cpu_power: PowerSpec { idle_w: 85.0, active_w: 230.0 },
            dram_power: PowerSpec { idle_w: 25.0, active_w: 75.0 },
        }
    }
}

/// Per-SSD prices and power (Fig. 16a, §6.6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoragePricePower {
    /// Unit price in USD.
    pub price_usd: f64,
    /// Power envelope of one device.
    pub power: PowerSpec,
}

/// PM9A3 PCIe 4.0 SSD: $400, 13 W active (datasheet, §6.6).
pub fn pm9a3_price_power() -> StoragePricePower {
    StoragePricePower { price_usd: 400.0, power: PowerSpec { idle_w: 5.0, active_w: 13.0 } }
}

/// SmartSSD: $2,400; SSD ~9 W plus the accelerator's 11–16 W (Table 3).
pub fn smartssd_price_power() -> StoragePricePower {
    StoragePricePower { price_usd: 2_400.0, power: PowerSpec { idle_w: 12.0, active_w: 25.0 } }
}

/// The H3 Falcon 4109 PCIe expansion chassis: $10,000 (Fig. 16a).
pub fn expansion_chassis_price_usd() -> f64 {
    10_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_interpolates() {
        let p = PowerSpec { idle_w: 10.0, active_w: 110.0 };
        assert_eq!(p.at_utilization(0.0), 10.0);
        assert_eq!(p.at_utilization(1.0), 110.0);
        assert_eq!(p.at_utilization(0.5), 60.0);
        assert_eq!(p.at_utilization(7.0), 110.0);
        assert_eq!(p.at_utilization(-1.0), 10.0);
    }

    #[test]
    fn gpu_catalog_sanity() {
        let a100 = GpuSpec::a100_40g();
        let h100 = GpuSpec::h100_80g();
        assert!(h100.fp16_flops > 2.0 * a100.fp16_flops);
        assert!(h100.hbm_bw > a100.hbm_bw);
        assert_eq!(a100.mem_bytes, 40 << 30);
        // Fig 16a: the H100 costs >4x the A100.
        assert!(h100.price_usd / a100.price_usd > 4.0);
    }

    #[test]
    fn host_catalog_sanity() {
        let h = HostSpec::xeon_512g();
        assert_eq!(h.dram_bytes, 512 << 30);
        assert!(h.dram_bw > 100e9);
        assert!(h.cpu_flops < GpuSpec::a100_40g().fp16_flops / 10.0);
    }

    #[test]
    fn smartssd_pricing_matches_paper() {
        assert_eq!(smartssd_price_power().price_usd, 2_400.0);
        assert_eq!(pm9a3_price_power().price_usd, 400.0);
        assert_eq!(expansion_chassis_price_usd(), 10_000.0);
        // Fig 16a system deltas: 16 SmartSSDs + chassis vs 4 plain SSDs.
        let hilos_extra = 16.0 * 2_400.0 + 10_000.0;
        assert_eq!(hilos_extra, 48_400.0);
    }
}
