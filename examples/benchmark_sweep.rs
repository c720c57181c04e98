//! Model-zoo benchmarking sweep (the paper's other motivating workload:
//! large-scale LLM benchmarking, §1): every Table 2 model on a medium
//! offline batch, HILOS versus FLEX(SSD).
//!
//! ```sh
//! cargo run --release --example benchmark_sweep
//! ```

use hilos::baselines::{FlexGenSystem, KvLocation};
use hilos::core::{HilosConfig, HilosSystem};
use hilos::llm::presets;
use hilos::metrics::Table;
use hilos::platform::SystemSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (batch, ctx) = (16u32, 32 * 1024u64);
    println!("Benchmark sweep: bs={batch}, s={}K, decode throughput\n", ctx / 1024);

    let mut table = Table::new(vec![
        "model",
        "d_group",
        "MoE",
        "FLEX(SSD) tok/s",
        "HILOS(16) tok/s",
        "speedup",
        "alpha",
    ]);
    for model in presets::all() {
        let flex = FlexGenSystem::new(&SystemSpec::a100_pm9a3(4), &model, KvLocation::SsdArray)?
            .run_decode(batch, ctx, 8)
            .map(|r| r.tokens_per_second());
        let hilos_sys =
            HilosSystem::new(&SystemSpec::a100_smartssd(16), &model, &HilosConfig::new(16))?;
        let hilos = hilos_sys.run_decode(batch, ctx, 8)?;
        let speedup = flex.as_ref().map(|f| hilos.tokens_per_second() / f).unwrap_or(f64::NAN);
        table.row(vec![
            model.name().into(),
            model.d_group().to_string(),
            model
                .moe()
                .map(|m| format!("{}x{}", m.experts, m.active_experts))
                .unwrap_or("-".into()),
            flex.map(|v| format!("{v:.4}")).unwrap_or_else(|e| e.to_string()),
            format!("{:.4}", hilos.tokens_per_second()),
            format!("{speedup:.2}x"),
            format!("{:.0}%", hilos.alpha * 100.0),
        ]);
    }
    println!("{table}");
    println!("Note: GQA models (d_group > 1) disable the X-cache (alpha=0%) because");
    println!("their pre-projection activations exceed the grouped KV cache in size.");

    // Context-sensitivity sweep.
    println!("\nHILOS(16) OPT-66B context sweep (bs={batch}):\n");
    let sys = HilosSystem::new(
        &SystemSpec::a100_smartssd(16),
        &presets::opt_66b(),
        &HilosConfig::new(16),
    )?;
    let mut sweep = Table::new(vec!["context", "tok/s", "s/step", "alpha"]);
    for kc in [16u64, 32, 64, 128] {
        let report = sys.run_decode(batch, kc * 1024, 8)?;
        sweep.row(vec![
            format!("{kc}K"),
            format!("{:.4}", report.tokens_per_second()),
            format!("{:.3}", report.avg_step_seconds),
            format!("{:.0}%", report.alpha * 100.0),
        ]);
    }
    println!("{sweep}");
    Ok(())
}
