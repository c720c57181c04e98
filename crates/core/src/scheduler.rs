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
//!
//! The KV cache is striped evenly over the devices, so every per-device
//! task (steps 3–5, the spills, storage weight loads and prefill writes)
//! has the same bytes and FLOPs on every device. The builders append one
//! chain per [`DeviceClass`](hilos_platform::DeviceClass) — a run of
//! devices nothing in the model tells apart — as one
//! [`TaskGraph::copies`] block standing for each of its devices, not one
//! chain per device: a homogeneous 16-SmartSSD array builds the graph of
//! one device, with the shared links carrying sixteen copies. Every
//! modeled number equals the per-device graph's bit for bit (the tests
//! keep that graph as the reference and compare the two).

use crate::config::HilosConfig;
use hilos_llm::ModelConfig;
use hilos_platform::{BuiltSystem, SystemSpec};
use hilos_sim::{Hop, Label, TaskGraph, TaskId};
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

impl WeightSource {
    /// Tasks one [`load_weights`] call from this source appends on a
    /// system with `classes` device classes.
    pub fn load_tasks(self, classes: usize) -> usize {
        match self {
            WeightSource::HostDram => 1,
            WeightSource::Storage => classes + 1,
        }
    }
}

/// Decides where weights live: host DRAM if they fit beside a 32 GiB
/// working-set reserve, otherwise storage. Following §6.1, models above
/// 100 B parameters (200 GB at FP16) are always placed on storage — DRAM
/// must keep room for the writeback buffers and pinned I/O staging.
pub fn weight_source(spec: &SystemSpec, model: &ModelConfig) -> WeightSource {
    const HUNDRED_B_PARAMS_BYTES: u64 = 200_000_000_000;
    const WORKING_SET_RESERVE_BYTES: u64 = 32 << 30;
    if model.weight_bytes() > HUNDRED_B_PARAMS_BYTES
        || model.weight_bytes() + WORKING_SET_RESERVE_BYTES > spec.host.dram_bytes
    {
        WeightSource::Storage
    } else {
        WeightSource::HostDram
    }
}

/// Appends a weight transfer of `bytes` to the GPU and returns the task
/// that gates dependent compute. Chained on `prev` to model a depth-1
/// prefetch stream. Weights on storage load as one transfer per device
/// (one per device class, standing for its devices), labelled `label` on
/// those devices, joined by a milestone labelled `label` with the tail
/// `".done"`.
pub fn load_weights(
    graph: &mut TaskGraph,
    sys: &BuiltSystem,
    source: WeightSource,
    label: Label,
    bytes: f64,
    prev: Option<TaskId>,
) -> TaskId {
    let deps = prev.as_slice();
    match source {
        WeightSource::HostDram => {
            let route =
                once(Hop::from(sys.host_dram)).chain(sys.host_to_gpu_route().iter().copied());
            graph.transfer(label, bytes, route, deps)
        }
        WeightSource::Storage => {
            let per = bytes / sys.devices.len() as f64;
            let parts: Vec<TaskId> = sys
                .classes()
                .iter()
                .enumerate()
                .map(|(c, class)| {
                    let read = sys.devices[class.first].ssd.read_resource();
                    let route =
                        once(Hop::from(read)).chain(sys.class_to_gpu_route(c).iter().copied());
                    graph.copies(class.count as u32, |g| {
                        g.transfer(class.label(label), per, route, deps)
                    })
                })
                .collect();
            graph.milestone(label.tail(".done"), &parts)
        }
    }
}

/// An empty graph sized for `tasks` tasks. A task here has at most two
/// dependencies but for the few milestones that join a layer's device classes,
/// and crosses at most four links on average, so the dependency and route
/// arenas get room for two and four per task.
fn graph_for(tasks: usize) -> TaskGraph {
    TaskGraph::with_capacity(tasks, 2 * tasks, 4 * tasks)
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
/// device class's ANS fragment (scatter → store → load-KV → attention →
/// gather) in device order, the buffered tail, the X-cache portion, the
/// MLP and the background spills — so equal inputs build equal graphs.
/// Each class's per-device tasks form one [`TaskGraph::copies`] block.
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
    let n = sys.devices.len();
    let classes = sys.classes();
    let m = classes.len();
    let bs = step.batch as f64;
    let s = step.context as f64;
    let h = model.hidden() as f64;
    let kv_dim = model.kv_dim() as f64;
    let d_head = model.head_dim() as f64;
    let heads = model.heads() as f64;
    let alpha = step.alpha;
    let wb = config.delayed_writeback();
    let source = weight_source(&sys.spec, model);

    // Tasks per layer, branch by branch as built below.
    let gathers = if alpha < 1.0 { m } else { 0 };
    let ans = gathers * if wb { 5 } else { 8 };
    let tail = if wb && step.buffered_tokens > 0 { m + 1 } else { 0 };
    let xcache = if alpha > 0.0 { m + 3 } else { 0 };
    let spills = if wb && step.spill_now { 2 * m } else { 0 };
    let layer_tasks = 2 * source.load_tasks(m) + 3 + ans + tail + xcache + spills;
    let mut g = graph_for(step.sim_layers as usize * layer_tasks);

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

    let mut prev_w: Option<TaskId> = None;
    let mut prev_layer: Option<TaskId> = None;
    let mut deps: Vec<TaskId> = Vec::with_capacity(2);
    let mut atn_parts: Vec<TaskId> = Vec::with_capacity(gathers + tail + xcache);

    for l in 0..step.sim_layers {
        // -- 1: attention weights --
        let w_attn = load_weights(
            &mut g,
            sys,
            source,
            Label::new("loadw:attn").layer(l),
            model.attn_weight_bytes_per_layer() as f64,
            prev_w,
        );
        // -- 2: QKV projection --
        deps.clear();
        deps.push(w_attn);
        deps.extend(prev_layer);
        let qkv = g.compute(Label::new("qkv:l").layer(l), qkv_flops, sys.gpu, &deps);

        atn_parts.clear();

        // -- 3: ANS portion on the devices --
        if alpha < 1.0 {
            for (c, class) in classes.iter().enumerate() {
                let dev = &sys.devices[class.first];
                let gather = g.copies(class.count as u32, |g| {
                    let scatter = g.transfer(
                        class.label(Label::new("scatter:qkv").layer(l)),
                        scatter_bytes / n as f64,
                        sys.gpu_to_class_route(c),
                        &[qkv],
                    );
                    // Naive write-through: sub-page KV writes gate the read,
                    // each entry paying a page read-modify-write in firmware.
                    deps.clear();
                    deps.push(scatter);
                    if !wb {
                        let entries =
                            ((1.0 - alpha) * bs * model.kv_heads() as f64 / n as f64).ceil();
                        let write = dev.ssd.write_task(
                            g,
                            class.label(Label::new("storekv:l").layer(l)),
                            entries * page, // each 256 B entry programs a page
                            sys.gpu_to_class_route(c),
                            &[qkv],
                        );
                        let rmw = g.delay(
                            class.label(Label::new("storekv:rmw").layer(l)),
                            hilos_sim::SimTime::from_secs_f64(entries * SUB_PAGE_WRITE_PENALTY_S),
                            &[write],
                        );
                        deps.push(rmw);
                    }
                    // The device reads its KV shard over its internal P2P
                    // path into the accelerator's DRAM.
                    let read = dev.ssd.read_task(
                        g,
                        class.label(Label::new("loadkv:l").layer(l)),
                        (1.0 - alpha) * kv_layer_bytes / n as f64,
                        dev.internal_path.into_iter().chain(dev.fpga_dram),
                        &deps,
                    );
                    let accel = dev.accel.expect("HILOS requires accelerator-equipped devices");
                    let atn = g.compute(
                        class.label(Label::new("atn:l").layer(l)),
                        (1.0 - alpha) * atn_flops_layer / n as f64,
                        accel,
                        &[scatter],
                    );
                    g.transfer(
                        class.label(Label::new("gather:out").layer(l)),
                        gather_bytes / n as f64,
                        sys.class_to_host_route(c),
                        &[read, atn],
                    )
                });
                atn_parts.push(gather);
            }
        }

        // -- 5: host partial QK^T for the buffered tail, plus the tail's
        // V rows and score scalars shipped to the devices --
        if wb && step.buffered_tokens > 0 {
            let flops = 2.0 * bs * heads * d_head * step.buffered_tokens as f64 * (1.0 - alpha);
            let partial = g.compute(Label::new("partial:l").layer(l), flops, sys.cpu, &[qkv]);
            let tail_bytes = step.buffered_tokens as f64
                * bs
                * (1.0 - alpha)
                * (kv_dim * 2.0 + heads * 4.0 / kv_dim.max(1.0))
                / n as f64;
            for (c, class) in classes.iter().enumerate() {
                let route = once(class.shared(sys.host_dram))
                    .chain(sys.host_to_class_route(c).iter().copied());
                atn_parts.push(g.copies(class.count as u32, |g| {
                    g.transfer(
                        class.label(Label::new("tailv:l").layer(l)),
                        tail_bytes,
                        route,
                        &[partial],
                    )
                }));
            }
            atn_parts.push(partial);
        }

        // -- 4: cooperative X-cache portion on the GPU --
        if alpha > 0.0 {
            let dev_link_bw = sys.spec.effective_pci_bw() / n as f64;
            for (c, class) in classes.iter().enumerate() {
                let read = sys.devices[class.first].ssd.read_resource();
                let route = once(Hop::from(read)).chain(sys.class_to_gpu_route(c).iter().copied());
                atn_parts.push(g.copies(class.count as u32, |g| {
                    g.transfer_capped(
                        class.label(Label::new("loadx:l").layer(l)),
                        alpha * x_layer_bytes / n as f64,
                        route,
                        GDS_EFFICIENCY * dev_link_bw,
                        &[qkv],
                    )
                }));
            }
            let regen =
                g.compute(Label::new("regen:l").layer(l), regen_flops_layer, sys.gpu, &[qkv]);
            let atnx =
                g.compute(Label::new("atnx:l").layer(l), alpha * atn_flops_layer, sys.gpu, &[qkv]);
            let atnx_mem = g.transfer(
                Label::new("atnxmem:l").layer(l),
                alpha * bs * 3.0 * s * h * 2.0,
                [sys.gpu_hbm],
                &[qkv],
            );
            atn_parts.push(regen);
            atn_parts.push(atnx);
            atn_parts.push(atnx_mem);
        }

        let atn_done = g.milestone(Label::new("sync:atn").layer(l), &atn_parts);

        // -- 6: MLP --
        let w_mlp = load_weights(
            &mut g,
            sys,
            source,
            Label::new("loadw:mlp").layer(l),
            (model.decode_weight_traffic_bytes(step.batch) / model.layers() as u64
                - model.attn_weight_bytes_per_layer()) as f64,
            Some(w_attn),
        );
        let mlp = g.compute(
            Label::new("mlp:l").layer(l),
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
            for (c, class) in classes.iter().enumerate() {
                let dev = &sys.devices[class.first];
                g.copies(class.count as u32, |g| {
                    let spill = dev.ssd.write_task(
                        g,
                        class.label(Label::new("spill:l").layer(l)),
                        pages * page,
                        sys.host_to_class_route(c),
                        &[qkv],
                    );
                    g.set_background(spill);
                });
            }
        }

        prev_layer = Some(mlp);
        prev_w = Some(w_mlp);
    }
    g
}

/// Builds the task graph of the prefill phase: chunked FlashAttention on
/// the GPU with streamed weights, then page-aligned KV/X writes to the
/// devices (the row-wise layout of §4.3), one [`TaskGraph::copies`] block
/// per device class.
pub fn build_hilos_prefill(
    sys: &BuiltSystem,
    model: &ModelConfig,
    batch: u32,
    context: u64,
    alpha: f64,
    sim_layers: u32,
) -> TaskGraph {
    let n = sys.devices.len();
    let classes = sys.classes();
    let bs = batch as f64;
    let s = context as f64;
    let source = weight_source(&sys.spec, model);
    let mut g =
        graph_for(sim_layers as usize * (source.load_tasks(classes.len()) + 2 + 2 * classes.len()));
    let per_layer_flops = bs * model.prefill_flops(context) / model.layers() as f64;
    let kv_layer_bytes = bs * 2.0 * s * model.kv_dim() as f64 * 2.0;
    let x_layer_bytes = bs * s * model.hidden() as f64 * 2.0;
    let write_bytes = ((1.0 - alpha) * kv_layer_bytes + alpha * x_layer_bytes) / n as f64;

    let mut prev_w: Option<TaskId> = None;
    let mut prev_layer: Option<TaskId> = None;
    let mut deps: Vec<TaskId> = Vec::with_capacity(2);
    let mut writes: Vec<TaskId> = Vec::with_capacity(classes.len());
    for l in 0..sim_layers {
        let w = load_weights(
            &mut g,
            sys,
            source,
            Label::new("loadw:pf").layer(l),
            (model.attn_weight_bytes_per_layer()
                + model.decode_weight_traffic_bytes(batch) / model.layers() as u64)
                as f64,
            prev_w,
        );
        deps.clear();
        deps.push(w);
        deps.extend(prev_layer);
        let compute = g.compute(Label::new("prefill:l").layer(l), per_layer_flops, sys.gpu, &deps);
        // Row-wise KV/X writes: large and page-aligned, so they run at
        // full sequential bandwidth.
        writes.clear();
        for (c, class) in classes.iter().enumerate() {
            writes.push(g.copies(class.count as u32, |g| {
                sys.devices[class.first].ssd.write_task(
                    g,
                    class.label(Label::new("writekv:pf").layer(l)),
                    write_bytes,
                    sys.gpu_to_class_route(c),
                    &[compute],
                )
            }));
        }
        let done = g.milestone(Label::new("sync:pf").layer(l), &writes);
        prev_layer = Some(done);
        prev_w = Some(w);
    }
    g
}

/// The step graphs with one chain per device, as built before device
/// classes: the reference the collapsed builders are held to. Routes are
/// walked from the topology per task.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use hilos_interconnect::NodeId;
    use hilos_sim::ResourceId;

    /// The directed links from `from` to `to`.
    fn route(sys: &BuiltSystem, from: NodeId, to: NodeId) -> Vec<ResourceId> {
        sys.topo.route(from, to).expect("route exists")
    }

    /// Appends a weight transfer of `bytes` to the GPU and returns the task
    /// that gates dependent compute. Chained on `prev` to model a depth-1
    /// prefetch stream. Weights on storage load as one transfer per device,
    /// labelled `label` on that device, joined by a milestone labelled `label`
    /// with the tail `".done"`.
    pub(crate) fn load_weights_per_device(
        graph: &mut TaskGraph,
        sys: &BuiltSystem,
        source: WeightSource,
        label: Label,
        bytes: f64,
        prev: Option<TaskId>,
    ) -> TaskId {
        let deps = prev.as_slice();
        match source {
            WeightSource::HostDram => {
                let route = once(sys.host_dram).chain(route(sys, sys.host_node, sys.gpu_node));
                graph.transfer(label, bytes, route, deps)
            }
            WeightSource::Storage => {
                let n = sys.devices.len();
                let per = bytes / n as f64;
                let parts: Vec<TaskId> = (0..n)
                    .map(|d| {
                        let read = sys.devices[d].ssd.read_resource();
                        let route = once(read).chain(route(sys, sys.devices[d].node, sys.gpu_node));
                        graph.transfer(label.device(d), per, route, deps)
                    })
                    .collect();
                graph.milestone(label.tail(".done"), &parts)
            }
        }
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
    pub(crate) fn build_hilos_decode_step_per_device(
        sys: &BuiltSystem,
        model: &ModelConfig,
        config: &HilosConfig,
        step: &DecodeStepSpec,
    ) -> TaskGraph {
        let n = sys.devices.len();
        let bs = step.batch as f64;
        let s = step.context as f64;
        let h = model.hidden() as f64;
        let kv_dim = model.kv_dim() as f64;
        let d_head = model.head_dim() as f64;
        let heads = model.heads() as f64;
        let alpha = step.alpha;
        let wb = config.delayed_writeback();
        let source = weight_source(&sys.spec, model);

        // Tasks per layer, branch by branch as built below.
        let gathers = if alpha < 1.0 { n } else { 0 };
        let ans = gathers * if wb { 5 } else { 8 };
        let tail = if wb && step.buffered_tokens > 0 { n + 1 } else { 0 };
        let xcache = if alpha > 0.0 { n + 3 } else { 0 };
        let spills = if wb && step.spill_now { 2 * n } else { 0 };
        let layer_tasks = 2 * source.load_tasks(n) + 3 + ans + tail + xcache + spills;
        let mut g = graph_for(step.sim_layers as usize * layer_tasks);

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

        let mut prev_w: Option<TaskId> = None;
        let mut prev_layer: Option<TaskId> = None;
        let mut deps: Vec<TaskId> = Vec::with_capacity(2);
        let mut atn_parts: Vec<TaskId> = Vec::with_capacity(gathers + tail + xcache);

        for l in 0..step.sim_layers {
            // -- 1: attention weights --
            let w_attn = load_weights_per_device(
                &mut g,
                sys,
                source,
                Label::new("loadw:attn").layer(l),
                model.attn_weight_bytes_per_layer() as f64,
                prev_w,
            );
            // -- 2: QKV projection --
            deps.clear();
            deps.push(w_attn);
            deps.extend(prev_layer);
            let qkv = g.compute(Label::new("qkv:l").layer(l), qkv_flops, sys.gpu, &deps);

            atn_parts.clear();

            // -- 3: ANS portion on the devices --
            if alpha < 1.0 {
                for (d, dev) in sys.devices.iter().enumerate() {
                    let scatter = g.transfer(
                        Label::new("scatter:qkv").layer(l).device(d),
                        scatter_bytes / n as f64,
                        route(sys, sys.gpu_node, sys.devices[d].node),
                        &[qkv],
                    );
                    // Naive write-through: sub-page KV writes gate the read,
                    // each entry paying a page read-modify-write in firmware.
                    deps.clear();
                    deps.push(scatter);
                    if !wb {
                        let entries =
                            ((1.0 - alpha) * bs * model.kv_heads() as f64 / n as f64).ceil();
                        let write = dev.ssd.write_task(
                            &mut g,
                            Label::new("storekv:l").layer(l).device(d),
                            entries * page, // each 256 B entry programs a page
                            route(sys, sys.gpu_node, sys.devices[d].node),
                            &[qkv],
                        );
                        let rmw = g.delay(
                            Label::new("storekv:rmw").layer(l).device(d),
                            hilos_sim::SimTime::from_secs_f64(entries * SUB_PAGE_WRITE_PENALTY_S),
                            &[write],
                        );
                        deps.push(rmw);
                    }
                    // The device reads its KV shard over its internal P2P path
                    // into the accelerator's DRAM.
                    let read = dev.ssd.read_task(
                        &mut g,
                        Label::new("loadkv:l").layer(l).device(d),
                        (1.0 - alpha) * kv_layer_bytes / n as f64,
                        dev.internal_path.into_iter().chain(dev.fpga_dram),
                        &deps,
                    );
                    let accel = dev.accel.expect("HILOS requires accelerator-equipped devices");
                    let atn = g.compute(
                        Label::new("atn:l").layer(l).device(d),
                        (1.0 - alpha) * atn_flops_layer / n as f64,
                        accel,
                        &[scatter],
                    );
                    atn_parts.push(g.transfer(
                        Label::new("gather:out").layer(l).device(d),
                        gather_bytes / n as f64,
                        route(sys, sys.devices[d].node, sys.host_node),
                        &[read, atn],
                    ));
                }
            }

            // -- 5: host partial QK^T for the buffered tail, plus the tail's
            // V rows and score scalars shipped to the devices --
            if wb && step.buffered_tokens > 0 {
                let flops = 2.0 * bs * heads * d_head * step.buffered_tokens as f64 * (1.0 - alpha);
                let partial = g.compute(Label::new("partial:l").layer(l), flops, sys.cpu, &[qkv]);
                let tail_bytes = step.buffered_tokens as f64
                    * bs
                    * (1.0 - alpha)
                    * (kv_dim * 2.0 + heads * 4.0 / kv_dim.max(1.0))
                    / n as f64;
                for d in 0..n {
                    let route =
                        once(sys.host_dram).chain(route(sys, sys.host_node, sys.devices[d].node));
                    atn_parts.push(g.transfer(
                        Label::new("tailv:l").layer(l).device(d),
                        tail_bytes,
                        route,
                        &[partial],
                    ));
                }
                atn_parts.push(partial);
            }

            // -- 4: cooperative X-cache portion on the GPU --
            if alpha > 0.0 {
                let dev_link_bw = sys.spec.effective_pci_bw() / n as f64;
                for (d, dev) in sys.devices.iter().enumerate() {
                    let read = dev.ssd.read_resource();
                    let route = once(read).chain(route(sys, sys.devices[d].node, sys.gpu_node));
                    let lx = g.transfer_capped(
                        Label::new("loadx:l").layer(l).device(d),
                        alpha * x_layer_bytes / n as f64,
                        route,
                        GDS_EFFICIENCY * dev_link_bw,
                        &[qkv],
                    );
                    atn_parts.push(lx);
                }
                let regen =
                    g.compute(Label::new("regen:l").layer(l), regen_flops_layer, sys.gpu, &[qkv]);
                let atnx = g.compute(
                    Label::new("atnx:l").layer(l),
                    alpha * atn_flops_layer,
                    sys.gpu,
                    &[qkv],
                );
                let atnx_mem = g.transfer(
                    Label::new("atnxmem:l").layer(l),
                    alpha * bs * 3.0 * s * h * 2.0,
                    [sys.gpu_hbm],
                    &[qkv],
                );
                atn_parts.push(regen);
                atn_parts.push(atnx);
                atn_parts.push(atnx_mem);
            }

            let atn_done = g.milestone(Label::new("sync:atn").layer(l), &atn_parts);

            // -- 6: MLP --
            let w_mlp = load_weights_per_device(
                &mut g,
                sys,
                source,
                Label::new("loadw:mlp").layer(l),
                (model.decode_weight_traffic_bytes(step.batch) / model.layers() as u64
                    - model.attn_weight_bytes_per_layer()) as f64,
                Some(w_attn),
            );
            let mlp = g.compute(
                Label::new("mlp:l").layer(l),
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
                        Label::new("spill:l").layer(l).device(d),
                        pages * page,
                        route(sys, sys.host_node, sys.devices[d].node),
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
    pub(crate) fn build_hilos_prefill_per_device(
        sys: &BuiltSystem,
        model: &ModelConfig,
        batch: u32,
        context: u64,
        alpha: f64,
        sim_layers: u32,
    ) -> TaskGraph {
        let n = sys.devices.len();
        let bs = batch as f64;
        let s = context as f64;
        let source = weight_source(&sys.spec, model);
        let mut g = graph_for(sim_layers as usize * (source.load_tasks(n) + 2 + 2 * n));
        let per_layer_flops = bs * model.prefill_flops(context) / model.layers() as f64;
        let kv_layer_bytes = bs * 2.0 * s * model.kv_dim() as f64 * 2.0;
        let x_layer_bytes = bs * s * model.hidden() as f64 * 2.0;
        let write_bytes = ((1.0 - alpha) * kv_layer_bytes + alpha * x_layer_bytes) / n as f64;

        let mut prev_w: Option<TaskId> = None;
        let mut prev_layer: Option<TaskId> = None;
        let mut deps: Vec<TaskId> = Vec::with_capacity(2);
        let mut writes: Vec<TaskId> = Vec::with_capacity(n);
        for l in 0..sim_layers {
            let w = load_weights_per_device(
                &mut g,
                sys,
                source,
                Label::new("loadw:pf").layer(l),
                (model.attn_weight_bytes_per_layer()
                    + model.decode_weight_traffic_bytes(batch) / model.layers() as u64)
                    as f64,
                prev_w,
            );
            deps.clear();
            deps.push(w);
            deps.extend(prev_layer);
            let compute =
                g.compute(Label::new("prefill:l").layer(l), per_layer_flops, sys.gpu, &deps);
            // Row-wise KV/X writes: large and page-aligned, so they run at
            // full sequential bandwidth.
            writes.clear();
            for (d, dev) in sys.devices.iter().enumerate() {
                writes.push(dev.ssd.write_task(
                    &mut g,
                    Label::new("writekv:pf").layer(l).device(d),
                    write_bytes,
                    route(sys, sys.gpu_node, sys.devices[d].node),
                    &[compute],
                ));
            }
            let done = g.milestone(Label::new("sync:pf").layer(l), &writes);
            prev_layer = Some(done);
            prev_w = Some(w);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlphaPolicy;
    use hilos_accel::AccelTimingModel;
    use hilos_llm::presets;
    use hilos_platform::SystemSpec;
    use hilos_sim::execute;
    use hilos_storage::{KvShardLedger, ShardSpec};

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
            let cfg = HilosConfig::new(8).with_writeback(wb).with_alpha(AlphaPolicy::Fixed(0.0));
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
        let spec = SystemSpec::a100_smartssd(8);
        assert_eq!(weight_source(&spec, &presets::opt_66b()), WeightSource::HostDram);
        assert_eq!(weight_source(&spec, &presets::opt_175b()), WeightSource::Storage);
    }

    #[test]
    fn spec_answers_match_the_built_world() {
        // The static questions are answered from the spec; a built world
        // must agree with each answer bit for bit. The world-side values
        // are read from its device list and link resources.
        let models = [presets::opt_66b(), presets::opt_175b()];
        let kinds: [fn(usize) -> SystemSpec; 4] = [
            SystemSpec::a100_pm9a3,
            SystemSpec::a100_smartssd,
            SystemSpec::a100_chassis_no_fpga,
            SystemSpec::a100_isp,
        ];
        for kind in kinds {
            for n in [1, 4, 8, 16] {
                let spec = kind(n);
                let last = n - 1;
                for degradations in [vec![], vec![(last, 0.25)], vec![(last, 0.5), (last, 0.5)]] {
                    let at = format!("{} ({n}) {degradations:?}", spec.name);
                    let accel = AccelTimingModel::smartssd(1);
                    let sys = BuiltSystem::build_with_degradations(
                        &spec,
                        Some(&accel),
                        128,
                        &degradations,
                    )
                    .unwrap();
                    let cap = |r| sys.engine.resource(r).capacity();
                    let healthy = sys.spec.storage.ssd_spec();

                    let world_b_ssd = healthy.seq_read_bw() * sys.devices.len() as f64;
                    assert_eq!(spec.aggregate_internal_read_bw().to_bits(), world_b_ssd.to_bits());
                    let to_host = sys.class_to_host_route(0);
                    let mut world_b_pci = cap(to_host[0].resource) * sys.devices.len() as f64;
                    if to_host.len() > 1 {
                        world_b_pci = world_b_pci.min(cap(to_host[to_host.len() - 1].resource));
                    }
                    world_b_pci = world_b_pci.min(cap(sys.host_to_gpu_route()[0].resource));
                    assert_eq!(spec.effective_pci_bw().to_bits(), world_b_pci.to_bits(), "{at}");
                    for model in &models {
                        assert_eq!(weight_source(&spec, model), weight_source(&sys.spec, model));
                    }

                    let world_shards: Vec<ShardSpec> = sys
                        .devices
                        .iter()
                        .map(|d| ShardSpec {
                            capacity_bytes: healthy.capacity_bytes(),
                            weight: cap(d.ssd.read_resource()),
                        })
                        .collect();
                    let specs = spec.device_specs(&degradations).unwrap();
                    assert_eq!(specs.len(), world_shards.len(), "{at}");
                    for (d, w) in specs.iter().zip(&world_shards) {
                        assert_eq!(d.capacity_bytes(), w.capacity_bytes, "{at}");
                        assert_eq!(d.seq_read_bw().to_bits(), w.weight.to_bits(), "{at}");
                    }
                    let mut ledger = spec.kv_ledger(&degradations).unwrap();
                    let mut world_ledger = KvShardLedger::new(world_shards);
                    assert_eq!(
                        ledger.total_weight().to_bits(),
                        world_ledger.total_weight().to_bits()
                    );
                    assert_eq!(
                        ledger.allocate(0, 3 << 30).unwrap(),
                        world_ledger.allocate(0, 3 << 30).unwrap(),
                        "{at}"
                    );
                }
                let out_of_range = [(n, 0.5)];
                assert_eq!(
                    spec.device_specs(&out_of_range).unwrap_err(),
                    BuiltSystem::build_with_degradations(&spec, None, 128, &out_of_range)
                        .unwrap_err()
                );
            }
        }
    }

    /// Every task label of `graph`, one a line.
    fn label_text(graph: &TaskGraph) -> String {
        use std::fmt::Write as _;
        let mut text = String::new();
        for (_, task) in graph.iter() {
            writeln!(text, "{}", task.label()).unwrap();
        }
        text
    }

    fn fnv1a(text: &str) -> u64 {
        text.bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    }

    type DecodeBuilder = fn(&BuiltSystem, &ModelConfig, &HilosConfig, &DecodeStepSpec) -> TaskGraph;
    type PrefillBuilder = fn(&BuiltSystem, &ModelConfig, u32, u64, f64, u32) -> TaskGraph;

    /// Every label `decode` and `prefill` build on `sys` for quiet,
    /// buffered and spill steps with delayed writeback, a step with it off,
    /// weights from DRAM (66B) and from storage (175B), and a prefill
    /// graph: every label shape the builders make.
    fn label_text_on(sys: &BuiltSystem, decode: DecodeBuilder, prefill: PrefillBuilder) -> String {
        let n = sys.devices.len();
        let mut text = String::new();
        for model in [presets::opt_66b(), presets::opt_175b()] {
            let steps = [(0, false, true), (7, false, true), (15, true, true), (0, false, false)];
            for (buffered_tokens, spill_now, wb) in steps {
                let cfg = HilosConfig::new(n).with_writeback(wb);
                let step = DecodeStepSpec {
                    batch: 16,
                    context: 32 * 1024,
                    alpha: 0.5,
                    buffered_tokens,
                    spill_now,
                    spill_tokens: 16,
                    sim_layers: 2,
                };
                text += &label_text(&decode(sys, &model, &cfg, &step));
            }
            text += &label_text(&prefill(sys, &model, 4, 16 * 1024, 0.5, 2));
        }
        text
    }

    #[test]
    fn step_graph_labels_render_the_pinned_text() {
        // The per-device reference graphs at 4 and 16 devices.
        let mut text = String::new();
        for n in [4, 16] {
            text += &label_text_on(
                &built(n, 1),
                reference::build_hilos_decode_step_per_device,
                reference::build_hilos_prefill_per_device,
            );
        }
        assert_eq!(fnv1a(&text), 0x464f_97b3_50f6_ecbf, "label text moved:\n{text}");
    }

    #[test]
    fn class_graph_labels_render_the_pinned_text() {
        // One class at 4 and 16 devices; at 16, a straggler on device 5
        // splits the array into four classes (0-3, 4, 5 and 6-15).
        let straggler = BuiltSystem::build_with_degradations(
            &SystemSpec::a100_smartssd(16),
            Some(&AccelTimingModel::smartssd(1)),
            128,
            &[(5, 0.5)],
        )
        .unwrap();
        let mut text = String::new();
        for sys in [built(4, 1), built(16, 1), straggler] {
            text += &label_text_on(&sys, build_hilos_decode_step, build_hilos_prefill);
        }
        assert!(text.contains("loadkv:l0.d0-15\n") && text.contains("loadkv:l1.d6-15.cmd\n"));
        assert_eq!(fnv1a(&text), 0xc3e6_41af_0b18_1f73, "label text moved:\n{text}");
    }

    #[test]
    fn a_homogeneous_array_builds_one_graph_size_at_every_device_count() {
        // Weights from DRAM (66B) and from storage (175B), with every
        // per-device branch of the decode step built (ANS, tail, X-cache
        // and spill) and a prefill graph.
        for model in [presets::opt_66b(), presets::opt_175b()] {
            let tasks = |n: usize, decode: DecodeBuilder, prefill: PrefillBuilder| {
                let sys = built(n, 1);
                let step = DecodeStepSpec {
                    batch: 16,
                    context: 32 * 1024,
                    alpha: 0.5,
                    buffered_tokens: 15,
                    spill_now: true,
                    spill_tokens: 16,
                    sim_layers: 4,
                };
                let decode = decode(&sys, &model, &HilosConfig::new(n), &step).len();
                (decode, prefill(&sys, &model, 4, 16 * 1024, 0.5, 4).len())
            };
            let class = |n| tasks(n, build_hilos_decode_step, build_hilos_prefill);
            let per_device = |n| {
                tasks(
                    n,
                    reference::build_hilos_decode_step_per_device,
                    reference::build_hilos_prefill_per_device,
                )
            };
            assert_eq!(class(8), class(4), "{}", model.name());
            assert_eq!(class(16), class(4), "{}", model.name());
            // One class is one device's chain: the graph of one device.
            assert_eq!(class(16), per_device(1), "{}", model.name());
            assert!(per_device(16).0 > 5 * class(16).0, "{}", model.name());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The class graphs give every `StepOutcome` field, the category
        /// seconds and the prefill seconds of the per-device reference
        /// graphs bit for bit, over the five offline presets, SmartSSD and
        /// ISP-CSD arrays of 1–16 devices, 0–2 stragglers (port-mates
        /// included), batch, context, α (0, 1, auto or any), writeback on
        /// and off and every buffered and spill phase of any interval.
        #[test]
        fn class_graphs_match_the_per_device_reference_bit_for_bit(
            system in (0usize..5, proptest::prelude::any::<bool>(), 1usize..17, 0usize..3),
            stragglers in (proptest::prelude::any::<u64>(), 0.05f64..1.5, 0.05f64..1.5),
            job in (1u32..65, 256u64..131_072, 0u32..4, 0.0f64..1.0),
            writeback in (proptest::prelude::any::<bool>(), 1u32..33, 0u64..64, 1u32..4),
        ) {
            let (model, isp, n, degraded) = system;
            let (pick, f1, f2) = stragglers;
            let (batch, context, alpha_mode, any_alpha) = job;
            let (wb, c, phase, sim_layers) = writeback;
            let model = [
                presets::opt_30b(),
                presets::opt_66b(),
                presets::opt_175b(),
                presets::qwen25_32b(),
                presets::mixtral_8x7b(),
            ][model]
                .clone();
            let spec = if isp { SystemSpec::a100_isp(n) } else { SystemSpec::a100_smartssd(n) };
            let alpha_policy = match alpha_mode {
                0 => AlphaPolicy::Fixed(0.0),
                1 => AlphaPolicy::Fixed(1.0),
                2 => AlphaPolicy::Auto,
                _ => AlphaPolicy::Fixed(any_alpha),
            };
            let config = HilosConfig::new(n)
                .with_writeback(wb)
                .with_spill_interval(c)
                .with_alpha(alpha_policy);
            let mut system = crate::HilosSystem::new(&spec, &model, &config)
                .unwrap()
                .with_sim_layers(sim_layers);
            // The first straggler anywhere; the second on its port-mate
            // or anywhere.
            let first = (pick % n as u64) as usize;
            let second = if pick & (1 << 40) != 0 && (first ^ 1) < n {
                first ^ 1
            } else {
                ((pick >> 8) % n as u64) as usize
            };
            for (index, factor) in [(first, f1), (second, f2)].into_iter().take(degraded) {
                system = system.with_degraded_device(index, factor);
            }
            let alpha = system.select_alpha(batch, context).unwrap();
            let decision = crate::decision_at(&config, phase);

            let mut class = crate::DecodeStepExecutor::new(&system).unwrap();
            let mut per_device = crate::DecodeStepExecutor::new(&system).unwrap();
            let (got, got_categories) =
                class.execute_step_breakdown(batch, context, alpha, &decision, true).unwrap();
            let (want, want_categories) = per_device
                .execute_step_built_by(
                    reference::build_hilos_decode_step_per_device,
                    batch,
                    context,
                    alpha,
                    &decision,
                    true,
                )
                .unwrap();
            let bits = |o: &crate::StepOutcome| {
                [
                    o.seconds,
                    o.gpu_utilization,
                    o.cpu_utilization,
                    o.dram_utilization,
                    o.host_pcie_bytes,
                    o.internal_read_bytes,
                ]
                .map(f64::to_bits)
            };
            proptest::prop_assert_eq!(bits(&got), bits(&want), "{:?} vs {:?}", got, want);
            let category_bits = |c: &[(String, f64)]| {
                c.iter().map(|(name, s)| (name.clone(), s.to_bits())).collect::<Vec<_>>()
            };
            proptest::prop_assert_eq!(
                category_bits(&got_categories),
                category_bits(&want_categories),
                "{:?} vs {:?}",
                got_categories,
                want_categories
            );

            let got = class.execute_prefill(batch, context, alpha).unwrap();
            let want = per_device
                .execute_prefill_built_by(
                    reference::build_hilos_prefill_per_device,
                    batch,
                    context,
                    alpha,
                )
                .unwrap();
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "prefill {} vs {}", got, want);
        }
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
