//! A month of offline serving: run Azure-class request batches back to
//! back on one HILOS deployment and watch the SSD endurance budget burn
//! down — the operational reading of the paper's §6.6 analysis.
//!
//! ```sh
//! cargo run --release --example serving_campaign
//! ```

use hilos::core::{HilosConfig, HilosSystem, ServingCampaign};
use hilos::llm::{presets, BatchSpec, RequestClass};
use hilos::metrics::{fmt_bytes, Table};
use hilos::platform::SystemSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = presets::opt_66b();
    let system = HilosSystem::new(&SystemSpec::a100_smartssd(16), &model, &HilosConfig::new(16))?;
    let mut campaign = ServingCampaign::new(system);

    println!("Serving campaign: {} on 16 SmartSSDs\n", model.name());
    let mut table = Table::new(vec![
        "class",
        "jobs",
        "tokens",
        "hours",
        "NAND written",
        "endurance used",
        "lifetime (jobs)",
    ]);

    // A representative daily mix: mostly medium requests, some long.
    for (class, jobs) in
        [(RequestClass::Short, 6u32), (RequestClass::Medium, 4), (RequestClass::Long, 2)]
    {
        for _ in 0..jobs {
            let spec = BatchSpec::new(16, class.input_tokens(), class.output_tokens());
            campaign.run_job(&spec)?;
        }
        let s = campaign.summary();
        table.row(vec![
            class.to_string(),
            s.jobs.to_string(),
            s.tokens.to_string(),
            format!("{:.2}", s.seconds / 3600.0),
            fmt_bytes(s.nand_bytes_written),
            format!("{:.6}%", s.endurance_used * 100.0),
            format!("{:.2e}", campaign.projected_lifetime_jobs()),
        ]);
    }
    println!("{table}");

    let s = campaign.summary();
    println!(
        "Sustained throughput: {:.2} token/s; projected array lifetime at this mix: {:.1} years",
        s.tokens_per_second(),
        campaign.projected_lifetime_jobs() * (s.seconds / s.jobs as f64) / (365.0 * 24.0 * 3600.0)
    );
    println!("(write-once-read-many: reads dwarf writes, as §6.6 argues)");
    println!(
        "Array reads {} vs NAND writes {}",
        fmt_bytes(s.bytes_read as f64),
        fmt_bytes(s.nand_bytes_written)
    );
    Ok(())
}
