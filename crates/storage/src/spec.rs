//! Datasheet-level SSD descriptions.

use crate::nand::NandGeometry;
use hilos_sim::SimTime;

/// Static description of an NVMe SSD.
///
/// Presets mirror the devices in Table 1 of the paper.
///
/// # Examples
///
/// ```
/// use hilos_storage::SsdSpec;
///
/// let pm9a3 = SsdSpec::pm9a3();
/// assert!(pm9a3.seq_read_bw() > 6.0e9);
/// assert_eq!(pm9a3.page_bytes(), 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdSpec {
    capacity_bytes: u64,
    seq_read_bw: f64,
    seq_write_bw: f64,
    page_bytes: u64,
    cmd_latency: SimTime,
    /// Total NAND write endurance in bytes (PBW × 10^15).
    endurance_bytes: f64,
}

impl SsdSpec {
    /// Creates a custom SSD description.
    ///
    /// # Panics
    ///
    /// Panics if any bandwidth/capacity is non-positive or the page size is
    /// not a power of two.
    pub fn new(
        capacity_bytes: u64,
        seq_read_bw: f64,
        seq_write_bw: f64,
        page_bytes: u64,
        cmd_latency: SimTime,
        endurance_bytes: f64,
    ) -> Self {
        assert!(capacity_bytes > 0, "capacity must be positive");
        assert!(seq_read_bw > 0.0 && seq_write_bw > 0.0, "bandwidths must be positive");
        assert!(page_bytes.is_power_of_two(), "page size must be a power of two");
        assert!(endurance_bytes > 0.0, "endurance must be positive");
        SsdSpec {
            capacity_bytes,
            seq_read_bw,
            seq_write_bw,
            page_bytes,
            cmd_latency,
            endurance_bytes,
        }
    }

    /// Samsung PM9A3 3.84 TB — the baselines' PCIe 4.0 data-center SSD:
    /// 6.9 GB/s sequential read, 4.1 GB/s sequential write.
    pub fn pm9a3() -> Self {
        SsdSpec::new(
            3_840_000_000_000,
            6.9e9,
            4.1e9,
            4096,
            SimTime::from_micros(20),
            // 1 DWPD class drive; the paper quotes 7.008 PBW for the
            // SmartSSD's SSD — the PM9A3 is similar per TB.
            7.008e15,
        )
    }

    /// The 3.84 TB NVMe SSD inside a Samsung SmartSSD. PCIe 3.0 device;
    /// internal peer-to-peer reads to the FPGA DRAM sustain ≈3.2 GB/s and
    /// writes ≈2.0 GB/s (paper Fig. 12a / §6.2). Endurance 7.008 PBW with
    /// 3-month retention (paper §6.6).
    pub fn smartssd_nvme() -> Self {
        SsdSpec::new(3_840_000_000_000, 3.2e9, 2.0e9, 4096, SimTime::from_micros(25), 7.008e15)
    }

    /// The envisioned ISP-CSD of §7.1: 16 TB NAND behind eight 2,000 MT/s
    /// channels (read at their aggregate, [`NandGeometry::isp_csd`]'s
    /// 16 GB/s), write ≈ 8 GB/s.
    pub fn isp_csd() -> Self {
        SsdSpec::new(
            16_000_000_000_000,
            NandGeometry::isp_csd().aggregate_channel_bw(),
            8.0e9,
            4096,
            SimTime::from_micros(20),
            4.0 * 7.008e15,
        )
    }

    /// Usable capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Sequential read bandwidth in bytes/s.
    pub fn seq_read_bw(&self) -> f64 {
        self.seq_read_bw
    }

    /// Sequential write bandwidth in bytes/s.
    pub fn seq_write_bw(&self) -> f64 {
        self.seq_write_bw
    }

    /// NAND page size in bytes — the minimum program granularity.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Fixed per-command latency (NVMe submission + device firmware).
    pub fn cmd_latency(&self) -> SimTime {
        self.cmd_latency
    }

    /// Total NAND write endurance in bytes.
    pub fn endurance_bytes(&self) -> f64 {
        self.endurance_bytes
    }

    /// Number of pages needed to hold `bytes` (the NAND program cost of a
    /// single buffered write of that size).
    pub fn pages_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.page_bytes)
    }

    /// Write amplification of issuing writes in `chunk`-byte units: the
    /// ratio of NAND bytes programmed to host bytes written. Sub-page
    /// chunks program a full page each (read-modify-write), which is the
    /// §4.3 pathology for 256-byte KV entries on 4 KiB pages (WAF = 16).
    pub fn write_amplification(&self, chunk: u64) -> f64 {
        assert!(chunk > 0, "chunk must be positive");
        let programmed = self.pages_for(chunk) * self.page_bytes;
        programmed as f64 / chunk as f64
    }

    /// Returns a copy with bandwidths scaled by `factor` — degraded-device
    /// (straggler) injection for availability experiments.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "scale factor must be positive");
        self.seq_read_bw *= factor;
        self.seq_write_bw *= factor;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_datasheets() {
        let pm = SsdSpec::pm9a3();
        assert_eq!(pm.capacity_bytes(), 3_840_000_000_000);
        assert!((pm.seq_read_bw() - 6.9e9).abs() < 1e6);
        assert!((pm.seq_write_bw() - 4.1e9).abs() < 1e6);

        let smart = SsdSpec::smartssd_nvme();
        assert!(smart.seq_read_bw() < pm.seq_read_bw());
        assert!((smart.endurance_bytes() - 7.008e15).abs() < 1e9);

        let isp = SsdSpec::isp_csd();
        assert!((isp.seq_read_bw() - 16e9).abs() < 1e6);
    }

    #[test]
    fn pages_for_rounds_up() {
        let s = SsdSpec::pm9a3();
        assert_eq!(s.pages_for(1), 1);
        assert_eq!(s.pages_for(4096), 1);
        assert_eq!(s.pages_for(4097), 2);
        assert_eq!(s.pages_for(0), 0);
    }

    #[test]
    fn write_amplification_of_kv_entries() {
        let s = SsdSpec::smartssd_nvme();
        // A 256-byte KV entry (one head, d=128, fp16 K+V) programs a full
        // 4 KiB page: WAF = 16, exactly the paper's default spill interval.
        assert_eq!(s.write_amplification(256), 16.0);
        assert_eq!(s.write_amplification(4096), 1.0);
        // Page-aligned multi-page writes are also WAF 1.
        assert_eq!(s.write_amplification(8192), 1.0);
        // 16 KiB pages (§7.3) quadruple sub-page amplification.
        let big = SsdSpec::new(1 << 40, 1e9, 1e9, 16384, SimTime::ZERO, 1e15);
        assert_eq!(big.write_amplification(256), 64.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_page_size_rejected() {
        let _ = SsdSpec::new(1 << 40, 1e9, 1e9, 5000, SimTime::ZERO, 1e15);
    }
}
