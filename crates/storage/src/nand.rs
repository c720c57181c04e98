//! NAND-flash-level timing model: channels, dies, sensing and program
//! latencies.
//!
//! The device-level [`SsdSpec`](crate::SsdSpec) bandwidths are datasheet
//! aggregates; this module derives them from first principles — page
//! sensing overlapped across dies, page transfers serialized per channel —
//! and is used to cross-check the datasheet numbers and to model the §7.1
//! ISP-CSD's eight 2,000 MT/s channels.

use hilos_sim::SimTime;

/// Geometry and timing of a NAND array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NandGeometry {
    /// Independent channels.
    pub channels: u32,
    /// Dies per channel (interleaving depth).
    pub dies_per_channel: u32,
    /// Physical page size in bytes (TLC pages are 16 KiB).
    pub page_bytes: u32,
    /// Page sense (read) latency.
    pub t_read: SimTime,
    /// Page program latency.
    pub t_program: SimTime,
    /// Channel transfer rate in bytes/s (MT/s × bus width).
    pub channel_bytes_per_sec: f64,
}

impl NandGeometry {
    /// The SmartSSD's NAND complex: 8 channels of 64-layer V-NAND, 16 KiB
    /// pages, ~533 MT/s channels — aggregating to the ~3.2 GB/s internal
    /// read bandwidth the paper measures.
    pub fn smartssd() -> Self {
        NandGeometry {
            channels: 8,
            dies_per_channel: 4,
            page_bytes: 16 * 1024,
            t_read: SimTime::from_micros(60),
            t_program: SimTime::from_micros(660),
            channel_bytes_per_sec: 533e6,
        }
    }

    /// The §7.1 envisioned ISP-CSD: eight 2,000 MT/s channels (16 GB/s).
    pub fn isp_csd() -> Self {
        NandGeometry {
            channels: 8,
            dies_per_channel: 8,
            page_bytes: 16 * 1024,
            t_read: SimTime::from_micros(50),
            t_program: SimTime::from_micros(600),
            channel_bytes_per_sec: 2000e6,
        }
    }

    /// Aggregate channel transfer bandwidth in bytes/s.
    pub fn aggregate_channel_bw(&self) -> f64 {
        self.channels as f64 * self.channel_bytes_per_sec
    }

    /// Sustained sequential read bandwidth: per channel, the steady state
    /// interleaves page senses across dies with page transfers on the bus;
    /// throughput is bus-bound once `dies × transfer ≥ sense`.
    pub fn sustained_read_bw(&self) -> f64 {
        let transfer_s = self.page_bytes as f64 / self.channel_bytes_per_sec;
        let sense_s = self.t_read.as_secs_f64();
        let per_channel = if self.dies_per_channel as f64 * transfer_s >= sense_s {
            // Bus saturated.
            self.channel_bytes_per_sec
        } else {
            // Sense-bound: dies can't feed the bus.
            self.dies_per_channel as f64 * self.page_bytes as f64 / sense_s
        };
        per_channel * self.channels as f64
    }

    /// Sustained sequential program bandwidth (same pipeline, program
    /// latency instead of sense).
    pub fn sustained_program_bw(&self) -> f64 {
        let transfer_s = self.page_bytes as f64 / self.channel_bytes_per_sec;
        let prog_s = self.t_program.as_secs_f64();
        let per_channel = if self.dies_per_channel as f64 * transfer_s >= prog_s {
            self.channel_bytes_per_sec
        } else {
            self.dies_per_channel as f64 * self.page_bytes as f64 / prog_s
        };
        per_channel * self.channels as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SsdSpec;

    #[test]
    fn smartssd_nand_matches_device_datasheet() {
        // The NAND-level model must reproduce the device-level read
        // bandwidth the paper measures for P2P reads (~3.2 GB/s) within
        // controller overheads.
        let nand = NandGeometry::smartssd();
        let device = SsdSpec::smartssd_nvme();
        let ratio = device.seq_read_bw() / nand.sustained_read_bw();
        assert!((0.6..1.0).contains(&ratio), "device/NAND ratio {ratio}");
    }

    #[test]
    fn isp_channels_hit_16_gbps() {
        // §7.1: eight 2,000 MT/s channels = 16 GB/s aggregate.
        let isp = NandGeometry::isp_csd();
        assert!((isp.aggregate_channel_bw() - 16e9).abs() < 1e6);
        assert!(isp.sustained_read_bw() > 12e9);
    }

    #[test]
    fn reads_are_bus_bound_with_enough_dies() {
        let nand = NandGeometry::smartssd();
        // 4 dies x 30us transfer > 60us sense: bus saturated.
        assert!((nand.sustained_read_bw() - nand.aggregate_channel_bw()).abs() < 1.0);
    }

    #[test]
    fn programs_are_slower_than_reads() {
        let nand = NandGeometry::smartssd();
        assert!(nand.sustained_program_bw() < nand.sustained_read_bw());
    }

    #[test]
    fn program_bound_by_cell_latency() {
        // 660us program vs 4 dies x 30us transfer: program-bound.
        let nand = NandGeometry::smartssd();
        let expect = nand.dies_per_channel as f64 * nand.page_bytes as f64
            / nand.t_program.as_secs_f64()
            * nand.channels as f64;
        assert!((nand.sustained_program_bw() - expect).abs() < 1.0);
    }

    #[test]
    fn more_channels_scale_bandwidth() {
        let base = NandGeometry::smartssd();
        let double = NandGeometry { channels: 16, ..base };
        assert!((double.sustained_read_bw() / base.sustained_read_bw() - 2.0).abs() < 1e-9);
    }
}
