//! Long-horizon serving campaigns: run many offline jobs back to back,
//! accumulating per-device NAND wear — the operational view behind the
//! §6.6 endurance analysis.
//!
//! Each job's NAND writes (amplification included) are booked per device
//! and its reads across the array, so a campaign answers the operator
//! questions the paper's Fig. 16b compresses into one number: how many
//! jobs until the array hits its PBW budget, and how fast is it burning
//! down.

use crate::runner::{CoreError, HilosSystem, JobReport};
use crate::serve::{SchedulingPolicy, ServeConfig, ServeEngine, TraceReport};
use crate::writeback::decode_nand_write_bytes;
use hilos_llm::{BatchSpec, Request};
use hilos_storage::SsdSpec;

/// Aggregate statistics of a campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignSummary {
    /// Jobs completed.
    pub jobs: u64,
    /// Generated tokens across all jobs.
    pub tokens: u64,
    /// Total simulated wall-clock seconds.
    pub seconds: f64,
    /// NAND bytes programmed across the array (amplification included).
    pub nand_bytes_written: f64,
    /// Bytes read across the array: decode-step internal plus host
    /// traffic.
    pub bytes_read: u64,
    /// Fraction of the array's endurance budget consumed, `[0, 1]`.
    pub endurance_used: f64,
}

impl CampaignSummary {
    /// Sustained generated-token throughput over the campaign.
    pub fn tokens_per_second(&self) -> f64 {
        if self.seconds > 0.0 {
            self.tokens as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// A stateful sequence of jobs on one HILOS deployment.
///
/// # Examples
///
/// ```
/// use hilos_core::{HilosConfig, HilosSystem, ServingCampaign};
/// use hilos_llm::{presets, BatchSpec};
/// use hilos_platform::SystemSpec;
///
/// # fn main() -> Result<(), hilos_core::CoreError> {
/// let system = HilosSystem::new(
///     &SystemSpec::a100_smartssd(8),
///     &presets::opt_30b(),
///     &HilosConfig::new(8),
/// )?
/// .with_sim_layers(2);
/// let mut campaign = ServingCampaign::new(system);
/// campaign.run_job(&BatchSpec::new(8, 4096, 4))?;
/// assert_eq!(campaign.summary().jobs, 1);
/// assert!(campaign.summary().endurance_used > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ServingCampaign {
    system: HilosSystem,
    /// The array's device model: page size and endurance budget.
    ssd: SsdSpec,
    /// NAND bytes programmed into each device, in device order.
    nand_programmed: Vec<u64>,
    bytes_read: u64,
    jobs: u64,
    tokens: u64,
    seconds: f64,
}

impl ServingCampaign {
    /// Starts a campaign on a deployment with fresh devices.
    pub fn new(system: HilosSystem) -> Self {
        let n = system.config().n_devices();
        let ssd = system.spec().storage.ssd_spec();
        ServingCampaign {
            system,
            ssd,
            nand_programmed: vec![0; n],
            bytes_read: 0,
            jobs: 0,
            tokens: 0,
            seconds: 0.0,
        }
    }

    /// The underlying deployment.
    pub fn system(&self) -> &HilosSystem {
        &self.system
    }

    /// Books device `d`'s share of one run: `prefill` payload bytes,
    /// which program whole NAND pages (a partial last page costs a full
    /// one), `decode` NAND bytes, already page-amplified by the spill
    /// model and added as they are, and `reads` bytes read.
    fn book(&mut self, d: usize, prefill: u64, decode: u64, reads: u64) {
        self.nand_programmed[d] += self.ssd.pages_for(prefill) * self.ssd.page_bytes() + decode;
        self.bytes_read += reads;
    }

    /// Runs one job, accumulating wear and throughput statistics.
    ///
    /// # Errors
    ///
    /// Propagates capacity/simulation errors; a failed job records
    /// nothing.
    pub fn run_job(&mut self, spec: &BatchSpec) -> Result<JobReport, CoreError> {
        let report = self.system.run_job(spec)?;
        let n = self.nand_programmed.len() as f64;

        // Prefill writes the whole cache once, page-aligned and striped.
        let prefill_per_dev = (report.prefill.cache_bytes_written / n) as u64;
        // Decode writes arrive pre-amplified from the spill model.
        let decode_per_dev =
            (report.decode.nand_write_bytes_per_step * spec.output_len as f64 / n) as u64;
        let reads_per_dev = ((report.decode.internal_read_bytes_per_step
            + report.decode.host_pcie_bytes_per_step)
            * spec.output_len as f64
            / n) as u64;
        for d in 0..self.nand_programmed.len() {
            self.book(d, prefill_per_dev, decode_per_dev, reads_per_dev);
        }

        self.jobs += 1;
        self.tokens += spec.total_generated_tokens();
        self.seconds += report.total_seconds();
        Ok(report)
    }

    /// Serves a heterogeneous request trace with continuous batching
    /// (see [`crate::serve`]) under the given scheduling policy, and
    /// folds its device wear and throughput into the campaign counters.
    ///
    /// Prefill payloads (page-aligned) and spill-model decode writes
    /// (page-amplified already) are apportioned by the shard ledger's
    /// actual per-device placement (`TraceReport::kv_placed_bytes`) so
    /// degraded devices that held less of every stripe also wear less;
    /// reads are the decode steps' internal plus host traffic, swept in
    /// the same proportion.
    ///
    /// # Errors
    ///
    /// Propagates build/simulation errors; a failed run records nothing.
    pub fn run_trace(
        &mut self,
        trace: &[Request],
        config: &ServeConfig,
        policy: Box<dyn SchedulingPolicy>,
    ) -> Result<TraceReport, CoreError> {
        let mut engine = ServeEngine::with_policy(self.system.clone(), config.clone(), policy)?;
        let report = engine.run_trace(trace)?;
        self.record_trace(&report);
        Ok(report)
    }

    /// Folds one deployment-level trace report into this campaign's wear
    /// and throughput counters (see [`ServingCampaign::run_trace`] for
    /// the apportioning rules).
    fn record_trace(&mut self, report: &TraceReport) {
        let n = self.nand_programmed.len() as f64;

        let placed_total: f64 = report.kv_placed_bytes.iter().sum();
        let share = |d: usize| {
            if placed_total > 0.0 {
                report.kv_placed_bytes[d] / placed_total
            } else {
                1.0 / n
            }
        };
        let decode_writes =
            decode_nand_write_bytes(&self.system, report.mean_alpha, report.generated_tokens);
        let reads = report.internal_read_bytes + report.host_pcie_bytes;
        for d in 0..self.nand_programmed.len() {
            let s = share(d);
            let (prefill, decode) = (report.prefill_payload_bytes * s, decode_writes * s);
            self.book(d, prefill as u64, decode as u64, (reads * s) as u64);
        }

        self.jobs += report.outcomes.len() as u64;
        self.tokens += report.generated_tokens;
        self.seconds += report.elapsed_s;
    }

    /// Fraction of the endurance budget consumed (worst device).
    pub fn endurance_used(&self) -> f64 {
        let budget = self.ssd.endurance_bytes();
        self.nand_programmed.iter().map(|&b| (b as f64 / budget).min(1.0)).fold(0.0, f64::max)
    }

    /// Projected total jobs of this shape until the budget is exhausted.
    pub fn projected_lifetime_jobs(&self) -> f64 {
        let used = self.endurance_used();
        if used <= 0.0 {
            f64::INFINITY
        } else {
            self.jobs as f64 / used
        }
    }

    /// Aggregate statistics so far.
    pub fn summary(&self) -> CampaignSummary {
        CampaignSummary {
            jobs: self.jobs,
            tokens: self.tokens,
            seconds: self.seconds,
            nand_bytes_written: self.nand_programmed.iter().map(|&b| b as f64).sum(),
            bytes_read: self.bytes_read,
            endurance_used: self.endurance_used(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HilosConfig;
    use crate::serve::Fifo;
    use hilos_llm::presets;
    use hilos_platform::SystemSpec;

    fn campaign() -> ServingCampaign {
        let system = HilosSystem::new(
            &SystemSpec::a100_smartssd(8),
            &presets::opt_30b(),
            &HilosConfig::new(8),
        )
        .unwrap()
        .with_sim_layers(2);
        ServingCampaign::new(system)
    }

    #[test]
    fn jobs_accumulate_wear_linearly() {
        let mut c = campaign();
        let job = BatchSpec::new(8, 8192, 4);
        c.run_job(&job).unwrap();
        let one = c.endurance_used();
        c.run_job(&job).unwrap();
        let two = c.endurance_used();
        assert!(one > 0.0);
        assert!((two / one - 2.0).abs() < 1e-6, "wear should be linear: {one} vs {two}");
    }

    #[test]
    fn summary_tracks_jobs_and_tokens() {
        let mut c = campaign();
        c.run_job(&BatchSpec::new(8, 8192, 4)).unwrap();
        c.run_job(&BatchSpec::new(4, 4096, 8)).unwrap();
        let s = c.summary();
        assert_eq!(s.jobs, 2);
        assert_eq!(s.tokens, 8 * 4 + 4 * 8);
        assert!(s.seconds > 0.0);
        assert!(s.tokens_per_second() > 0.0);
        assert!(s.nand_bytes_written > 0.0);
    }

    #[test]
    fn lifetime_projection_is_enormous_for_single_jobs() {
        // §6.6: millions of requests fit the PBW budget; one batch job
        // must project a very long lifetime.
        let mut c = campaign();
        c.run_job(&BatchSpec::new(8, 8192, 4)).unwrap();
        assert!(c.projected_lifetime_jobs() > 1e4, "{}", c.projected_lifetime_jobs());
    }

    #[test]
    fn failed_jobs_record_nothing() {
        let mut c = campaign();
        // Absurd job: exceeds device capacity.
        let err = c.run_job(&BatchSpec::new(512, 1024 * 1024, 64));
        assert!(err.is_err());
        assert_eq!(c.summary().jobs, 0);
        assert_eq!(c.endurance_used(), 0.0);
    }

    #[test]
    fn trace_campaign_accumulates_wear_and_metrics() {
        use hilos_llm::TraceConfig;
        let mut c = campaign();
        let trace = TraceConfig::azure_mix(32, 17).generate().unwrap();
        let report = c.run_trace(&trace, &ServeConfig::new(8), Box::new(Fifo)).unwrap();
        assert_eq!(report.outcomes.len(), 32);
        let s = c.summary();
        assert_eq!(s.jobs, 32);
        assert_eq!(s.tokens, report.generated_tokens);
        assert!(s.seconds > 0.0);
        assert!(c.endurance_used() > 0.0, "trace must burn endurance");
        assert!(report.ttft_stats().p99 >= report.ttft_stats().p50);
    }

    #[test]
    fn fresh_campaign_is_unworn() {
        let c = campaign();
        assert_eq!(c.endurance_used(), 0.0);
        assert_eq!(c.projected_lifetime_jobs(), f64::INFINITY);
        assert_eq!(c.nand_programmed, vec![0; 8]);
        assert_eq!(c.summary().bytes_read, 0);
    }

    #[test]
    fn counters_accumulate() {
        let mut c = campaign();
        c.book(0, 0, 0, 1000);
        c.book(0, 0, 0, 500);
        assert_eq!(c.summary().bytes_read, 1500);
        c.book(0, 4096, 0, 0);
        assert_eq!(c.nand_programmed[0], 4096);
        // A sub-page prefill write programs one whole page.
        c.book(0, 256, 0, 0);
        assert_eq!(c.nand_programmed[0], 2 * 4096);
        assert_eq!(c.summary().nand_bytes_written, (2 * 4096) as f64);
        // Decode bytes arrive page-amplified and are not rounded again.
        c.book(1, 0, 100, 0);
        assert_eq!(c.nand_programmed[1], 100);
    }

    #[test]
    fn sub_page_prefill_write_programs_one_page() {
        let mut c = campaign();
        c.book(0, 256, 0, 0);
        assert_eq!(c.nand_programmed[0], 4096);
        assert_eq!(c.summary().nand_bytes_written, 4096.0);
    }

    #[test]
    fn endurance_fraction() {
        let mut c = campaign();
        // Program 7.008e15 / 2 bytes into one device -> 50% used.
        c.book(3, 3_504_000_000_000_000, 0, 0);
        assert!((c.endurance_used() - 0.5).abs() < 1e-6);
    }
}
