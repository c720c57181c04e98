//! The reproducibility guarantee: every experiment and every simulated
//! run is bit-deterministic — the property that lets `tests/paper_claims.rs`
//! and the `BENCH_*.json` records quote exact numbers.

use hilos::core::{HilosConfig, HilosSystem};
use hilos::llm::presets;
use hilos::platform::SystemSpec;
use hilos_bench::experiments;

#[test]
fn decode_runs_are_bit_identical() {
    let run = || {
        HilosSystem::new(&SystemSpec::a100_smartssd(8), &presets::opt_66b(), &HilosConfig::new(8))
            .unwrap()
            .with_sim_layers(4)
            .run_decode(16, 32 * 1024, 8)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.avg_step_seconds.to_bits(), b.avg_step_seconds.to_bits());
    assert_eq!(a.gpu_utilization.to_bits(), b.gpu_utilization.to_bits());
    assert_eq!(a.category_seconds, b.category_seconds);
}

#[test]
fn experiments_render_identically_across_runs() {
    // A representative subset covering the sim, analytic and functional
    // paths (the full set is exercised by the smoke tests).
    for id in ["table3", "estimator", "fig12a", "fig16b", "fig18c", "straggler"] {
        let a = experiments::run(id).unwrap();
        let b = experiments::run(id).unwrap();
        assert_eq!(a, b, "{id} not deterministic");
    }
}

#[test]
fn synthetic_tasks_and_kernels_are_seed_stable() {
    use hilos::accel::{attention_kernel, AttentionInputs};
    use hilos::llm::{RetrievalTask, RetrievalTaskConfig};
    let t1 = RetrievalTask::generate(&RetrievalTaskConfig::longbench_like(1024, 42));
    let t2 = RetrievalTask::generate(&RetrievalTaskConfig::longbench_like(1024, 42));
    let out = |t: &RetrievalTask| {
        attention_kernel(&AttentionInputs {
            queries: &t.queries,
            keys: &t.keys,
            values: &t.values,
            valid: None,
            scale: t.scale,
            host_tail: None,
        })
        .unwrap()
    };
    assert_eq!(out(&t1), out(&t2));
    assert_eq!(t1.answers, t2.answers);
}

/// FNV-1a accumulator over report fields (little-endian words, floats by
/// bit pattern).
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }
    fn run_report(&mut self, r: &hilos::core::RunReport) {
        self.word(u64::from(r.batch));
        self.word(r.output_len);
        for x in [r.avg_step_seconds, r.decode_seconds, r.alpha] {
            self.float(x);
        }
        self.word(r.category_seconds.len() as u64);
        for (category, seconds) in &r.category_seconds {
            self.bytes(category.as_bytes());
            self.float(*seconds);
        }
        for x in [
            r.gpu_utilization,
            r.cpu_utilization,
            r.dram_utilization,
            r.host_pcie_bytes_per_step,
            r.internal_read_bytes_per_step,
            r.nand_write_bytes_per_step,
        ] {
            self.float(x);
        }
    }
    fn error(&mut self, e: &dyn std::fmt::Display) {
        self.bytes(b"err:");
        self.bytes(e.to_string().as_bytes());
    }
}

/// Golden pin of the offline path: every `PrefillReport`/`RunReport`
/// field of `run_prefill` + `run_decode` (one writeback cycle in two step
/// solves) for the five offline presets × 4/8/16 SmartSSDs × two job
/// shapes at the harness's layer depth, plus the FLEX(SSD) baseline on
/// the same models.
/// Any change to the decode task graph, the flow engine's arithmetic or
/// the α selection moves this constant.
#[test]
fn offline_reports_match_golden_fnv() {
    use hilos::baselines::{FlexGenSystem, KvLocation};
    use hilos_bench::SIM_LAYERS;
    let models = [
        presets::opt_30b(),
        presets::opt_66b(),
        presets::opt_175b(),
        presets::qwen25_32b(),
        presets::mixtral_8x7b(),
    ];
    let shapes = [(16u32, 32 * 1024u64), (48, 96 * 1024)];
    let output_len = 64;
    let mut h = Fnv(0xcbf29ce484222325);
    for model in &models {
        for n in [4usize, 8, 16] {
            let system =
                HilosSystem::new(&SystemSpec::a100_smartssd(n), model, &HilosConfig::new(n))
                    .unwrap()
                    .with_sim_layers(SIM_LAYERS);
            for (batch, context) in shapes {
                match system.run_prefill(batch, context) {
                    Ok(p) => {
                        h.float(p.seconds);
                        h.float(p.cache_bytes_written);
                    }
                    Err(e) => h.error(&e),
                }
                match system.run_decode(batch, context, output_len) {
                    Ok(r) => h.run_report(&r),
                    Err(e) => h.error(&e),
                }
            }
        }
        let flex = FlexGenSystem::new(&SystemSpec::a100_pm9a3(4), model, KvLocation::SsdArray)
            .unwrap()
            .with_sim_layers(SIM_LAYERS);
        let (batch, context) = shapes[0];
        match flex.run_prefill(batch, context) {
            Ok(seconds) => h.float(seconds),
            Err(e) => h.error(&e),
        }
        match flex.run_decode(batch, context, output_len) {
            Ok(r) => h.run_report(&r),
            Err(e) => h.error(&e),
        }
    }
    assert_eq!(h.0, 0x913cfd1cd9a6306d, "offline report FNV moved: {:#018x}", h.0);
}
