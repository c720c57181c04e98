//! Criterion benches, one group per paper table/figure: each benchmarks a
//! scaled-down unit of the experiment that `repro <id>` runs in full.

use criterion::{criterion_group, criterion_main, Criterion};
use hilos_accel::{AccelTimingModel, PerformanceEstimator, ResourceModel};
use hilos_baselines::{accuracy_comparison, FlexGenSystem, KvLocation, VllmMultiNode};
use hilos_core::{decision_at, HilosConfig, HilosSystem};
use hilos_llm::{footprint, presets, BatchSpec, RequestClass};
use hilos_metrics::EnduranceModel;
use hilos_platform::SystemSpec;
use std::hint::black_box;

fn hilos(n: usize) -> HilosSystem {
    HilosSystem::new(&SystemSpec::a100_smartssd(n), &presets::opt_66b(), &HilosConfig::new(n))
        .unwrap()
        .with_sim_layers(2)
}

fn flex_ssd() -> FlexGenSystem {
    FlexGenSystem::new(&SystemSpec::a100_pm9a3(4), &presets::opt_66b(), KvLocation::SsdArray)
        .unwrap()
        .with_sim_layers(2)
}

fn bench_fig2(c: &mut Criterion) {
    c.bench_function("fig2_footprint_breakdown", |b| {
        b.iter(|| footprint(&presets::opt_175b(), &BatchSpec::new(16, 128 * 1024, 64)))
    });
}

fn bench_fig4(c: &mut Criterion) {
    let sys = HilosSystem::new(
        &SystemSpec::a100_smartssd(16),
        &presets::opt_66b(),
        &HilosConfig::ans_only(16),
    )
    .unwrap()
    .with_sim_layers(2);
    c.bench_function("fig4_ans_decode_step", |b| {
        b.iter(|| sys.run_decode(black_box(16), 16 * 1024, 1).unwrap())
    });
}

fn bench_table3(c: &mut Criterion) {
    let model = ResourceModel::smartssd();
    c.bench_function("table3_resource_report", |b| {
        b.iter(|| {
            for d in [1u32, 4, 5] {
                black_box(model.report(d).unwrap());
            }
        })
    });
}

fn bench_estimator(c: &mut Criterion) {
    let est = PerformanceEstimator::smartssd();
    c.bench_function("estimator_kernel_seconds", |b| {
        b.iter(|| est.kernel_seconds(black_box(32 * 1024), 128, 5, 16))
    });
}

fn bench_fig10(c: &mut Criterion) {
    let h = hilos(8);
    let f = flex_ssd();
    let mut group = c.benchmark_group("fig10_decode_step");
    group.sample_size(10);
    group.bench_function("hilos_8dev", |b| b.iter(|| h.run_decode(16, 32 * 1024, 1).unwrap()));
    group.bench_function("flex_ssd", |b| b.iter(|| f.run_decode(16, 32 * 1024, 1).unwrap()));
    group.finish();
}

fn bench_fig12(c: &mut Criterion) {
    c.bench_function("fig12_kernel_timing", |b| {
        b.iter(|| {
            for d in [1u32, 4, 5] {
                black_box(AccelTimingModel::smartssd(d).kv_bytes_per_sec(128));
            }
        })
    });
}

fn bench_fig13(c: &mut Criterion) {
    c.bench_function("fig13_writeback_cycle", |b| {
        b.iter(|| {
            let config = HilosConfig::new(8);
            (0..64).filter(|&step| decision_at(&config, black_box(step)).spill_now).count()
        })
    });
}

fn bench_fig14(c: &mut Criterion) {
    let h = hilos(8);
    c.bench_function("fig14_prefill", |b| {
        b.iter(|| h.run_prefill(black_box(16), 16 * 1024).unwrap())
    });
}

fn bench_fig16(c: &mut Criterion) {
    let e = EnduranceModel::smartssd_array(16);
    c.bench_function("fig16b_endurance_model", |b| {
        b.iter(|| {
            e.hilos_request_bytes(&presets::opt_175b(), RequestClass::Long, black_box(0.5), 16)
        })
    });
}

fn bench_fig17(c: &mut Criterion) {
    let v = VllmMultiNode::paper_testbed();
    c.bench_function("fig17b_vllm_step_model", |b| {
        b.iter(|| v.step_seconds(&presets::opt_175b(), 1, black_box(16 * 1024)).unwrap())
    });
}

fn bench_fig18(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig18c_accuracy");
    group.sample_size(10);
    group.bench_function("one_task_1k", |b| {
        b.iter(|| accuracy_comparison(black_box(1024), 1, 0.125).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig2,
    bench_fig4,
    bench_table3,
    bench_estimator,
    bench_fig10,
    bench_fig12,
    bench_fig13,
    bench_fig14,
    bench_fig16,
    bench_fig17,
    bench_fig18
);
criterion_main!(benches);
