//! Task-graph builders for the HILOS decode and prefill pipelines.
//!
//! One decoding step (Fig. 4a / Fig. 5b) becomes a [`TaskGraph`] over the
//! built system's resources. Per layer:
//!
//! 1. attention weights stream to the GPU (from host DRAM, or from the
//!    devices via GPUDirect for >100B models),
//! 2. the GPU projects Q/K/V and scatters the fresh vectors to the NSP
//!    devices,
//! 3. each device reads its KV shard over its *internal* P2P path while
//!    its accelerator computes attention (pipelined: the slower gates),
//! 4. in parallel, the α-fraction X-cache shards stream to the GPU via
//!    GPUDirect Storage, are re-projected, and attended on the GPU,
//! 5. with delayed writeback the CPU pre-computes partial `QKᵀ` for the
//!    buffered tail; spills are background tasks that contend for
//!    bandwidth without gating the step,
//! 6. MLP weights stream and the GPU runs the feed-forward block.
//!
//! Weight loads chain layer-to-layer (prefetch depth 1), so transfer and
//! compute overlap exactly as FlexGen-style runtimes schedule them.

use crate::config::HilosConfig;
use hilos_llm::ModelConfig;
use hilos_platform::BuiltSystem;
use hilos_sim::{TaskGraph, TaskId};
use std::fmt;
use std::iter::once;

/// Calibrated efficiency of GPUDirect Storage reads relative to raw link
/// bandwidth. The paper's profiled `B_SSD/B_PCI ≈ 3` (§6.4) on a testbed
/// whose raw ratio is ≈1.6 implies GDS sustains roughly half the link
/// rate; 0.55 reproduces the measured ratio.
pub const GDS_EFFICIENCY: f64 = 0.55;

/// Firmware cost of one *sub-page* flash write on the naive write-through
/// path: a read-modify-write of a 4 KiB page for a 256 B KV entry (§4.3) —
/// a NAND page read (~60 µs) plus a program (~400 µs), partially pipelined
/// across planes.
pub const SUB_PAGE_WRITE_PENALTY_S: f64 = 250e-6;

/// Where the model weights live (§6.1: >100B models spill to storage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightSource {
    /// Weights fit in host DRAM.
    HostDram,
    /// Weights striped across the storage devices.
    Storage,
}

/// Decides where weights live: host DRAM if they fit beside a 32 GiB
/// working-set reserve, otherwise storage. Following §6.1, models above
/// 100 B parameters (200 GB at FP16) are always placed on storage — DRAM
/// must keep room for the writeback buffers and pinned I/O staging.
pub fn weight_source(sys: &BuiltSystem, model: &ModelConfig) -> WeightSource {
    const HUNDRED_B_PARAMS_BYTES: u64 = 200_000_000_000;
    const WORKING_SET_RESERVE_BYTES: u64 = 32 << 30;
    if model.weight_bytes() > HUNDRED_B_PARAMS_BYTES
        || model.weight_bytes() + WORKING_SET_RESERVE_BYTES > sys.spec.host.dram_bytes
    {
        WeightSource::Storage
    } else {
        WeightSource::HostDram
    }
}

/// Appends a weight transfer of `bytes` to the GPU and returns the task
/// that gates dependent compute. Chained on `prev` to model a depth-1
/// prefetch stream.
pub fn load_weights(
    graph: &mut TaskGraph,
    sys: &BuiltSystem,
    source: WeightSource,
    label: impl fmt::Display + Copy,
    bytes: f64,
    prev: Option<TaskId>,
) -> TaskId {
    let deps = prev.as_slice();
    match source {
        WeightSource::HostDram => {
            let route = once(&sys.host_dram).chain(sys.host_to_gpu_route());
            graph.transfer(label, bytes, route, deps)
        }
        WeightSource::Storage => {
            let n = sys.devices.len();
            let per = bytes / n as f64;
            let parts: Vec<TaskId> = (0..n)
                .map(|d| {
                    let read = sys.devices[d].ssd.read_resource();
                    let route = once(&read).chain(sys.device_to_gpu_route(d));
                    graph.transfer(format_args!("{label}.d{d}"), per, route, deps)
                })
                .collect();
            graph.milestone(format_args!("{label}.done"), &parts)
        }
    }
}

/// Parameters of one simulated decoding step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeStepSpec {
    /// Batch size.
    pub batch: u32,
    /// Context length at this step.
    pub context: u64,
    /// X-cache fraction in `[0, 1]`.
    pub alpha: f64,
    /// Tokens per sequence buffered in host memory (delayed writeback).
    pub buffered_tokens: u32,
    /// Whether the buffer spills this step.
    pub spill_now: bool,
    /// Tokens spilled if spilling.
    pub spill_tokens: u32,
    /// Number of transformer layers to materialize (the runner scales the
    /// makespan to the model's full depth).
    pub sim_layers: u32,
}

/// Builds the task graph of one HILOS decoding step.
///
/// Tasks are appended in a fixed order — per layer: weights, QKV, each
/// device's ANS fragment (scatter → store → load-KV → attention →
/// gather) in device order, the buffered tail, the X-cache portion, the
/// MLP and the background spills — so equal inputs build equal graphs.
///
/// # Panics
///
/// Panics if the system has no accelerator-equipped devices (callers
/// validate with [`crate::HilosSystem::new`]).
pub fn build_hilos_decode_step(
    sys: &BuiltSystem,
    model: &ModelConfig,
    config: &HilosConfig,
    step: &DecodeStepSpec,
) -> TaskGraph {
    let mut g = TaskGraph::new();
    let n = sys.devices.len();
    let bs = step.batch as f64;
    let s = step.context as f64;
    let h = model.hidden() as f64;
    let kv_dim = model.kv_dim() as f64;
    let d_head = model.head_dim() as f64;
    let heads = model.heads() as f64;
    let alpha = step.alpha;
    let wb = config.delayed_writeback();
    let source = weight_source(sys, model);

    // Per-layer byte/FLOP quantities.
    let s_stored = (s - step.buffered_tokens as f64).max(0.0);
    let kv_layer_bytes = bs * 2.0 * s_stored * kv_dim * 2.0;
    let x_layer_bytes = bs * s * h * 2.0;
    let qkv_flops = bs * model.qkv_flops_per_token_layer();
    let atn_flops_layer = bs * heads * 4.0 * s * d_head;
    let regen_flops_layer = 4.0 * alpha * bs * s * h * kv_dim;
    let scatter_bytes = (1.0 - alpha) * bs * (h + 2.0 * kv_dim) * 2.0;
    let gather_bytes = (1.0 - alpha) * bs * h * 2.0;
    let page = sys.spec.storage.ssd_spec().page_bytes() as f64;

    // Each device reads its KV shard over its internal P2P path into the
    // accelerator's DRAM.
    let internal_routes: Vec<Vec<_>> = sys
        .devices
        .iter()
        .map(|dev| dev.internal_path.into_iter().chain(dev.fpga_dram).collect())
        .collect();

    let mut prev_w: Option<TaskId> = None;
    let mut prev_layer: Option<TaskId> = None;
    let mut deps: Vec<TaskId> = Vec::new();
    let mut atn_parts: Vec<TaskId> = Vec::new();

    for l in 0..step.sim_layers {
        // -- 1: attention weights --
        let w_attn = load_weights(
            &mut g,
            sys,
            source,
            format_args!("loadw:attn{l}"),
            model.attn_weight_bytes_per_layer() as f64,
            prev_w,
        );
        // -- 2: QKV projection --
        deps.clear();
        deps.push(w_attn);
        deps.extend(prev_layer);
        let qkv = g.compute(format_args!("qkv:l{l}"), qkv_flops, sys.gpu, &deps);

        atn_parts.clear();

        // -- 3: ANS portion on the devices --
        if alpha < 1.0 {
            for (d, dev) in sys.devices.iter().enumerate() {
                let scatter = g.transfer(
                    format_args!("scatter:qkv{l}.d{d}"),
                    scatter_bytes / n as f64,
                    sys.gpu_to_device_route(d),
                    &[qkv],
                );
                // Naive write-through: sub-page KV writes gate the read,
                // each entry paying a page read-modify-write in firmware.
                deps.clear();
                deps.push(scatter);
                if !wb {
                    let entries = ((1.0 - alpha) * bs * model.kv_heads() as f64 / n as f64).ceil();
                    let write = dev.ssd.write_task(
                        &mut g,
                        format_args!("storekv:l{l}.d{d}"),
                        entries * page, // each 256 B entry programs a page
                        sys.gpu_to_device_route(d),
                        &[qkv],
                    );
                    let rmw = g.delay(
                        format_args!("storekv:rmw{l}.d{d}"),
                        hilos_sim::SimTime::from_secs_f64(entries * SUB_PAGE_WRITE_PENALTY_S),
                        &[write],
                    );
                    deps.push(rmw);
                }
                let read = dev.ssd.read_task(
                    &mut g,
                    format_args!("loadkv:l{l}.d{d}"),
                    (1.0 - alpha) * kv_layer_bytes / n as f64,
                    &internal_routes[d],
                    &deps,
                );
                let accel = dev.accel.expect("HILOS requires accelerator-equipped devices");
                let atn = g.compute(
                    format_args!("atn:l{l}.d{d}"),
                    (1.0 - alpha) * atn_flops_layer / n as f64,
                    accel,
                    &[scatter],
                );
                atn_parts.push(g.transfer(
                    format_args!("gather:out{l}.d{d}"),
                    gather_bytes / n as f64,
                    sys.device_to_host_route(d),
                    &[read, atn],
                ));
            }
        }

        // -- 5: host partial QK^T for the buffered tail, plus the tail's
        // V rows and score scalars shipped to the devices --
        if wb && step.buffered_tokens > 0 {
            let flops = 2.0 * bs * heads * d_head * step.buffered_tokens as f64 * (1.0 - alpha);
            let partial = g.compute(format_args!("partial:l{l}"), flops, sys.cpu, &[qkv]);
            let tail_bytes = step.buffered_tokens as f64
                * bs
                * (1.0 - alpha)
                * (kv_dim * 2.0 + heads * 4.0 / kv_dim.max(1.0))
                / n as f64;
            for d in 0..n {
                let route = once(&sys.host_dram).chain(sys.host_to_device_route(d));
                atn_parts.push(g.transfer(
                    format_args!("tailv:l{l}.d{d}"),
                    tail_bytes,
                    route,
                    &[partial],
                ));
            }
            atn_parts.push(partial);
        }

        // -- 4: cooperative X-cache portion on the GPU --
        if alpha > 0.0 {
            let dev_link_bw = sys.effective_pci_bw() / n as f64;
            for (d, dev) in sys.devices.iter().enumerate() {
                let read = dev.ssd.read_resource();
                let route = once(&read).chain(sys.device_to_gpu_route(d));
                let lx = g.transfer_capped(
                    format_args!("loadx:l{l}.d{d}"),
                    alpha * x_layer_bytes / n as f64,
                    route,
                    GDS_EFFICIENCY * dev_link_bw,
                    &[qkv],
                );
                atn_parts.push(lx);
            }
            let regen = g.compute(format_args!("regen:l{l}"), regen_flops_layer, sys.gpu, &[qkv]);
            let atnx =
                g.compute(format_args!("atnx:l{l}"), alpha * atn_flops_layer, sys.gpu, &[qkv]);
            let atnx_mem = g.transfer(
                format_args!("atnxmem:l{l}"),
                alpha * bs * 3.0 * s * h * 2.0,
                [sys.gpu_hbm],
                &[qkv],
            );
            atn_parts.push(regen);
            atn_parts.push(atnx);
            atn_parts.push(atnx_mem);
        }

        let atn_done = g.milestone(format_args!("sync:atn{l}"), &atn_parts);

        // -- 6: MLP --
        let w_mlp = load_weights(
            &mut g,
            sys,
            source,
            format_args!("loadw:mlp{l}"),
            (model.decode_weight_traffic_bytes(step.batch) / model.layers() as u64
                - model.attn_weight_bytes_per_layer()) as f64,
            Some(w_attn),
        );
        let mlp = g.compute(
            format_args!("mlp:l{l}"),
            bs * model.mlp_flops_per_token_layer(l),
            sys.gpu,
            &[w_mlp, atn_done],
        );

        // -- background spill of the buffered tail: per-head chunks, so
        // sub-page intervals (c < 16 on 4 KiB pages) amplify the write --
        if wb && step.spill_now {
            let kv_chunk = (step.spill_tokens as f64 * 2.0 * d_head * 2.0).max(1.0);
            let kv_waf = (kv_chunk / page).ceil() * page / kv_chunk;
            let spill_payload = step.spill_tokens as f64
                * bs
                * ((1.0 - alpha) * 2.0 * kv_dim * kv_waf + alpha * h)
                * 2.0
                / n as f64;
            let pages = (spill_payload / page).ceil();
            for (d, dev) in sys.devices.iter().enumerate() {
                let spill = dev.ssd.write_task(
                    &mut g,
                    format_args!("spill:l{l}.d{d}"),
                    pages * page,
                    sys.host_to_device_route(d),
                    &[qkv],
                );
                g.set_background(spill);
            }
        }

        prev_layer = Some(mlp);
        prev_w = Some(w_mlp);
    }
    g
}

/// Builds the task graph of the prefill phase: chunked FlashAttention on
/// the GPU with streamed weights, then page-aligned KV/X writes to the
/// devices (the row-wise layout of §4.3).
pub fn build_hilos_prefill(
    sys: &BuiltSystem,
    model: &ModelConfig,
    batch: u32,
    context: u64,
    alpha: f64,
    sim_layers: u32,
) -> TaskGraph {
    let mut g = TaskGraph::new();
    let n = sys.devices.len();
    let bs = batch as f64;
    let s = context as f64;
    let source = weight_source(sys, model);
    let per_layer_flops = bs * model.prefill_flops(context) / model.layers() as f64;
    let kv_layer_bytes = bs * 2.0 * s * model.kv_dim() as f64 * 2.0;
    let x_layer_bytes = bs * s * model.hidden() as f64 * 2.0;
    let write_bytes = ((1.0 - alpha) * kv_layer_bytes + alpha * x_layer_bytes) / n as f64;

    let mut prev_w: Option<TaskId> = None;
    let mut prev_layer: Option<TaskId> = None;
    for l in 0..sim_layers {
        let w = load_weights(
            &mut g,
            sys,
            source,
            format_args!("loadw:pf{l}"),
            (model.attn_weight_bytes_per_layer()
                + model.decode_weight_traffic_bytes(batch) / model.layers() as u64)
                as f64,
            prev_w,
        );
        let mut deps = vec![w];
        deps.extend(prev_layer);
        let compute = g.compute(format_args!("prefill:l{l}"), per_layer_flops, sys.gpu, &deps);
        // Row-wise KV/X writes: large and page-aligned, so they run at
        // full sequential bandwidth.
        let mut writes = Vec::with_capacity(n);
        for (d, dev) in sys.devices.iter().enumerate() {
            writes.push(dev.ssd.write_task(
                &mut g,
                format_args!("writekv:pf{l}.d{d}"),
                write_bytes,
                sys.gpu_to_device_route(d),
                &[compute],
            ));
        }
        let done = g.milestone(format_args!("sync:pf{l}"), &writes);
        prev_layer = Some(done);
        prev_w = Some(w);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilos_accel::AccelTimingModel;
    use hilos_llm::presets;
    use hilos_platform::SystemSpec;
    use hilos_sim::execute;

    fn built(n: usize, d_group: u32) -> BuiltSystem {
        BuiltSystem::build(
            &SystemSpec::a100_smartssd(n),
            Some(&AccelTimingModel::smartssd(d_group)),
            128,
        )
        .unwrap()
    }

    fn default_step(batch: u32, context: u64, alpha: f64) -> DecodeStepSpec {
        DecodeStepSpec {
            batch,
            context,
            alpha,
            buffered_tokens: 8,
            spill_now: false,
            spill_tokens: 0,
            sim_layers: 4,
        }
    }

    #[test]
    fn decode_graph_executes() {
        let model = presets::opt_66b();
        let mut sys = built(8, 1);
        let cfg = HilosConfig::new(8);
        let g = build_hilos_decode_step(&sys, &model, &cfg, &default_step(16, 32 * 1024, 0.5));
        let tl = execute(&mut sys.engine, &g).unwrap();
        assert!(tl.makespan().as_secs_f64() > 0.0);
    }

    #[test]
    fn xcache_reduces_step_time_for_mha() {
        let model = presets::opt_66b();
        let cfg = HilosConfig::new(8);
        let run = |alpha: f64| {
            let mut sys = built(8, 1);
            let g =
                build_hilos_decode_step(&sys, &model, &cfg, &default_step(16, 32 * 1024, alpha));
            execute(&mut sys.engine, &g).unwrap().makespan().as_secs_f64()
        };
        let plain = run(0.0);
        let xcached = run(0.5);
        assert!(xcached < plain * 0.85, "X-cache should cut the step: {xcached} vs {plain}");
    }

    #[test]
    fn writeback_beats_naive_write_through() {
        let model = presets::opt_66b();
        let run = |wb: bool| {
            let mut sys = built(8, 1);
            let cfg = HilosConfig::new(8).with_writeback(wb).with_xcache(false);
            let mut step = default_step(16, 16 * 1024, 0.0);
            if !wb {
                step.buffered_tokens = 0;
            }
            let g = build_hilos_decode_step(&sys, &model, &cfg, &step);
            execute(&mut sys.engine, &g).unwrap().makespan().as_secs_f64()
        };
        let naive = run(false);
        let delayed = run(true);
        assert!(delayed < naive, "WB should win: {delayed} vs {naive}");
    }

    #[test]
    fn more_devices_scale_ans_throughput() {
        let model = presets::opt_66b();
        let run = |n: usize| {
            let mut sys = built(n, 1);
            let cfg = HilosConfig::new(n);
            let g = build_hilos_decode_step(&sys, &model, &cfg, &default_step(16, 64 * 1024, 0.0));
            execute(&mut sys.engine, &g).unwrap().makespan().as_secs_f64()
        };
        let t4 = run(4);
        let t16 = run(16);
        assert!(t16 < t4 / 2.0, "16 devices should be >2x faster: {t16} vs {t4}");
    }

    #[test]
    fn spills_do_not_gate_the_step() {
        let model = presets::opt_66b();
        let cfg = HilosConfig::new(8);
        let run = |spill: bool| {
            let mut sys = built(8, 1);
            let mut step = default_step(16, 32 * 1024, 0.5);
            step.spill_now = spill;
            step.spill_tokens = 16;
            let g = build_hilos_decode_step(&sys, &model, &cfg, &step);
            execute(&mut sys.engine, &g).unwrap().makespan().as_secs_f64()
        };
        let quiet = run(false);
        let spilling = run(true);
        // Spills contend a little but must not serialize into the step.
        assert!(spilling < quiet * 1.25, "spill stalled the step: {spilling} vs {quiet}");
    }

    #[test]
    fn weight_source_selection() {
        let sys = built(8, 1);
        assert_eq!(weight_source(&sys, &presets::opt_66b()), WeightSource::HostDram);
        assert_eq!(weight_source(&sys, &presets::opt_175b()), WeightSource::Storage);
    }

    #[test]
    fn prefill_graph_executes_and_scales_with_context() {
        let model = presets::opt_30b();
        let run = |s: u64| {
            let mut sys = built(8, 1);
            let g = build_hilos_prefill(&sys, &model, 4, s, 0.5, 4);
            execute(&mut sys.engine, &g).unwrap().makespan().as_secs_f64()
        };
        let t16 = run(16 * 1024);
        let t32 = run(32 * 1024);
        assert!(t32 > 1.5 * t16, "prefill should grow superlinearly-ish: {t32} vs {t16}");
    }
}
