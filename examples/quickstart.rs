//! Quickstart: deploy HILOS on a simulated A100 + 8-SmartSSD server and
//! decode a long-context batch.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hilos::core::{HilosConfig, HilosSystem};
use hilos::llm::{presets, BatchSpec};
use hilos::platform::SystemSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The machine: an A100 server with a SmartSSD expansion chassis.
    let spec = SystemSpec::a100_smartssd(8);
    // The model: OPT-66B (Table 2 of the paper).
    let model = presets::opt_66b();
    // Full HILOS: attention near storage + cooperative X-cache + delayed
    // KV-cache writeback with the paper's default spill interval.
    let config = HilosConfig::new(8).with_spill_interval(16);

    let system = HilosSystem::new(&spec, &model, &config)?;

    // A batched offline job: 16 sequences, 32K-token prompts, 64 outputs.
    let job = BatchSpec::new(16, 32 * 1024, 64);
    system.check_capacity(&job)?;

    let alpha = system.select_alpha(job.batch, job.context_len)?;
    println!("model:          {model}");
    println!("system:         {} ({} devices)", spec.name, spec.storage.device_count());
    println!("X-cache ratio:  {:.0}% (selected by the Section 4.2 model)", alpha * 100.0);

    let report = system.run_job(&job)?;
    println!("prefill:        {:.1} s", report.prefill.seconds);
    println!(
        "decode:         {:.1} s ({:.3} token/s)",
        report.decode.decode_seconds,
        report.decode.tokens_per_second()
    );
    println!("end-to-end:     {:.3} token/s", report.tokens_per_second());
    println!(
        "host PCIe traffic per step: {:.2} GB (vs {:.2} GB KV read internally)",
        report.decode.host_pcie_bytes_per_step / 1e9,
        report.decode.internal_read_bytes_per_step / 1e9
    );
    Ok(())
}
