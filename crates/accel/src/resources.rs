//! FPGA resource, power and timing-closure model (Table 3).
//!
//! The SmartSSD carries a Kintex UltraScale+ KU15P. The user-logic
//! partition must fit the four attention units plus the shell; resource
//! consumption grows with `d_group` because the MAC array, exponential
//! units and per-query buffers replicate per query lane, with a
//! super-linear LUT term for routing congestion. Coefficients are
//! calibrated against the paper's Table 3: the `TABLE3` test below holds
//! the paper's numbers and tolerances, and `repro table3` prints the model
//! next to them.

use std::error::Error;
use std::fmt;

/// Resource totals of an FPGA part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpgaPart {
    /// Part name.
    pub name: &'static str,
    /// 6-input LUTs.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// 36 Kb block RAMs.
    pub bram36: u64,
    /// UltraRAM blocks.
    pub uram: u64,
    /// DSP48 slices.
    pub dsp: u64,
}

impl FpgaPart {
    /// The Kintex UltraScale+ KU15P on the SmartSSD.
    pub fn ku15p() -> Self {
        FpgaPart {
            name: "xcku15p",
            luts: 522_720,
            ffs: 1_045_440,
            bram36: 984,
            uram: 128,
            dsp: 1_968,
        }
    }
}

/// Errors from the resource model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ResourceError {
    /// A configuration exceeds the part's capacity.
    OverBudget {
        /// Which resource overflowed.
        resource: &'static str,
        /// Required amount.
        required: u64,
        /// Available amount.
        available: u64,
    },
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::OverBudget { resource, required, available } => {
                write!(f, "design does not fit: needs {required} {resource}, part has {available}")
            }
        }
    }
}

impl Error for ResourceError {}

/// Resource / power / frequency report for one accelerator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceReport {
    /// Query-group size of the configuration.
    pub d_group: u32,
    /// LUTs used.
    pub luts: u64,
    /// Flip-flops used.
    pub ffs: u64,
    /// BRAM36 used.
    pub bram36: u64,
    /// URAM used.
    pub uram: u64,
    /// DSP slices used.
    pub dsp: u64,
    /// Utilization fractions in `[0,1]`, same order: LUT/FF/BRAM/URAM/DSP.
    pub utilization: [f64; 5],
    /// Total on-chip power in watts (static + dynamic + transceivers).
    pub power_watts: f64,
    /// Achieved clock frequency in Hz.
    pub freq_hz: f64,
}

/// The resource model: estimates utilization for a `d_group` configuration
/// on a given part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceModel {
    part: FpgaPart,
}

impl ResourceModel {
    /// Creates a model for the given part.
    pub fn new(part: FpgaPart) -> Self {
        ResourceModel { part }
    }

    /// Model for the SmartSSD's KU15P.
    pub fn smartssd() -> Self {
        ResourceModel::new(FpgaPart::ku15p())
    }

    /// The modeled part.
    pub fn part(&self) -> FpgaPart {
        self.part
    }

    /// Estimates the report for a `d_group` configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ResourceError::OverBudget`] if any resource exceeds the
    /// part (e.g. the >2,000-DSP softmax scaling of §7.2).
    pub fn report(&self, d_group: u32) -> Result<ResourceReport, ResourceError> {
        assert!(d_group > 0, "d_group must be positive");
        let d = d_group as u64;

        // Shell + per-lane unit costs, calibrated to Table 3:
        // LUTs grow super-linearly (transpose muxing + routing congestion).
        let luts = 180_000 + 20_000 * d + 2_500 * d * d;
        let ffs = luts + luts * 45 / 100; // pipeline registers track LUTs
        let bram36 = 480 + 22 * d; // K/KT/V tiles + per-lane score FIFOs
        let uram = 12; // shell DMA buffers only
        let dsp = 128 + 70 * d; // MAC array + exp units (unroll 2)

        let checks: [(&'static str, u64, u64); 5] = [
            ("LUTs", luts, self.part.luts),
            ("FFs", ffs, self.part.ffs),
            ("BRAM36", bram36, self.part.bram36),
            ("URAM", uram, self.part.uram),
            ("DSPs", dsp, self.part.dsp),
        ];
        for (resource, required, available) in checks {
            if required > available {
                return Err(ResourceError::OverBudget { resource, required, available });
            }
        }

        let utilization = [
            luts as f64 / self.part.luts as f64,
            ffs as f64 / self.part.ffs as f64,
            bram36 as f64 / self.part.bram36 as f64,
            uram as f64 / self.part.uram as f64,
            dsp as f64 / self.part.dsp as f64,
        ];

        // Power: static + transceiver floor, plus dynamic terms tracking
        // logic, DSP and BRAM activity (percent-scaled).
        let power_watts = 5.0
            + 0.08 * (utilization[0] * 100.0)
            + 0.20 * (utilization[4] * 100.0)
            + 0.03 * (utilization[2] * 100.0);

        // The SmartSSD power envelope caps the clock at ~300 MHz; the
        // design closes at 296.05 MHz for every configuration that fits.
        let freq_hz = 296.05e6;

        Ok(ResourceReport {
            d_group,
            luts,
            ffs,
            bram36,
            uram,
            dsp,
            utilization,
            power_watts,
            freq_hz,
        })
    }

    /// Largest `d_group` that fits the part — the practical GQA limit.
    pub fn max_d_group(&self) -> u32 {
        let mut d = 1;
        while self.report(d + 1).is_ok() {
            d += 1;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Table 3 utilization percentages (LUT, FF, BRAM, URAM, DSP) and
    /// power for d_group 1, 4, 5.
    const TABLE3: [(u32, [f64; 5], f64); 3] = [
        (1, [38.76, 28.57, 51.02, 9.38, 10.06], 11.25),
        (4, [56.60, 39.70, 59.30, 9.38, 20.27], 15.39),
        (5, [67.40, 46.15, 58.49, 9.38, 27.79], 16.08),
    ];

    #[test]
    fn matches_table3_within_tolerance() {
        let model = ResourceModel::smartssd();
        for (d, util_pct, power) in TABLE3 {
            let r = model.report(d).unwrap();
            for (i, name) in ["LUT", "FF", "BRAM", "URAM", "DSP"].iter().enumerate() {
                let modeled = r.utilization[i] * 100.0;
                let paper = util_pct[i];
                let rel = (modeled - paper).abs() / paper;
                assert!(rel < 0.16, "d={d} {name}: model {modeled:.2}% vs paper {paper:.2}%");
            }
            let rel_p = (r.power_watts - power).abs() / power;
            assert!(rel_p < 0.12, "d={d} power: model {:.2} vs paper {power}", r.power_watts);
        }
    }

    #[test]
    fn frequency_meets_closure() {
        let r = ResourceModel::smartssd().report(5).unwrap();
        assert!((r.freq_hz - 296.05e6).abs() < 1.0);
        assert!(r.freq_hz < 300e6, "capped by the SmartSSD power envelope");
    }

    #[test]
    fn oversized_group_rejected() {
        let model = ResourceModel::smartssd();
        // LUTs overflow well before d_group = 12.
        let err = model.report(12).unwrap_err();
        assert!(matches!(err, ResourceError::OverBudget { resource: "LUTs", .. }));
    }

    #[test]
    fn max_d_group_is_stable() {
        let model = ResourceModel::smartssd();
        let max = model.max_d_group();
        assert!(model.report(max).is_ok());
        assert!(model.report(max + 1).is_err());
        assert!((5..=11).contains(&max), "max={max}");
    }

    #[test]
    fn utilization_monotone_in_d_group() {
        let model = ResourceModel::smartssd();
        let r1 = model.report(1).unwrap();
        let r5 = model.report(5).unwrap();
        for i in 0..5 {
            assert!(r5.utilization[i] >= r1.utilization[i]);
        }
        assert!(r5.power_watts > r1.power_watts);
    }

    #[test]
    fn full_16_device_deployment_power() {
        // §6.2: a 16-accelerator deployment at d_group=5 draws ≈258 W,
        // comparable to a single mid-range GPU.
        let r = ResourceModel::smartssd().report(5).unwrap();
        let total = 16.0 * r.power_watts;
        assert!(total > 200.0 && total < 300.0, "total={total}");
    }
}
