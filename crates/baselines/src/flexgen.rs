//! FlexGen-style offloading-based batched inference (the paper's primary
//! baseline, §2.2 / Fig. 1).
//!
//! Weights stream from host DRAM (or storage for >100B models) to the
//! GPU; the KV cache lives in host DRAM or on an SSD array; attention for
//! decoding runs on the host CPU (§6.1: "all baselines offload attention
//! computation to the CPU"). Weight loads overlap with compute through a
//! depth-1 prefetch chain, exactly like the HILOS scheduler, so the two
//! systems differ only in what the paper says they differ in: where the
//! KV bytes flow.

use crate::error::BaselineError;
use hilos_accel::{attention_streaming_f16, MatrixF16, MatrixF32};
use hilos_core::{load_weights, weight_source, RunReport};
use hilos_llm::ModelConfig;
use hilos_platform::{BuiltSystem, StorageConfig, SystemSpec};
use hilos_sim::{execute, TaskGraph, TaskId};

/// Where the baseline keeps the KV cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvLocation {
    /// Host DRAM — FLEX(DRAM). Fast but capacity-bound.
    HostDram,
    /// The SSD array — FLEX(SSD) / FLEX(16 PCIe 3.0 SSDs).
    SsdArray,
}

/// Efficiency of host-managed bulk storage I/O relative to raw device
/// bandwidth. FlexGen's synchronous, chunked KV pipeline sustains well
/// under half the raw array bandwidth (the paper measures >60–80% of step
/// time in KV I/O, Fig. 2b/11b, and ~0.1 token/s for 66B/32K/bs16 in
/// Fig. 11a); 0.42 reproduces those absolute numbers and places the
/// long-context HILOS speedups in the paper's 5.3–7.8× band. Calibrated
/// once and shared by all baselines.
pub const HOST_IO_EFFICIENCY: f64 = 0.42;

/// Extra penalty for driving a JBOF of 16 devices behind a shared
/// switch fabric with software RAID (mdadm chunking over two switch
/// levels). Calibrated so FLEX(16 PCIe 3.0 SSDs) lands in the paper's
/// 0.64–0.94× of FLEX(SSD) (§6.3).
pub const FABRIC_EFFICIENCY: f64 = 0.70;

/// Effective memory bandwidth of the CPU attention sweep. FlexGen's CPU
/// attention (fp16→fp32 conversion, framework overheads) sustains a small
/// fraction of raw DRAM bandwidth; 18 GB/s places FLEX(DRAM) in the
/// paper's Fig. 10 relation to HILOS(4) (which beats it by 1.10–1.36×)
/// and near its absolute Fig. 11a numbers.
pub const CPU_ATTENTION_BW: f64 = 18e9;

/// The functional model of the baselines' CPU attention (§6.1: "all
/// baselines offload attention computation to the CPU"): a
/// FlashAttention-style online-softmax sweep over the FP16 KV cache,
/// decoding rows through the shared LUT instead of widening the whole
/// cache to FP32 first — the same access pattern the
/// [`CPU_ATTENTION_BW`] throughput constant models at the simulation
/// level.
///
/// `queries` is `g × d`; `keys`/`values` are `s × d`.
///
/// # Panics
///
/// Panics if shapes disagree or the context is empty.
pub fn functional_cpu_attention(
    queries: &MatrixF16,
    keys: &MatrixF16,
    values: &MatrixF16,
    scale: f32,
) -> MatrixF32 {
    attention_streaming_f16(queries, keys, values, None, scale)
}

/// A FlexGen-style deployment.
#[derive(Debug, Clone)]
pub struct FlexGenSystem {
    spec: SystemSpec,
    model: ModelConfig,
    kv: KvLocation,
    sim_layers: u32,
    /// Extra per-layer host-DRAM traffic factor (used by the DeepSpeed+UVM
    /// wrapper; 1.0 for plain FlexGen).
    uvm_kv_bw: Option<f64>,
}

impl FlexGenSystem {
    /// Creates a deployment.
    ///
    /// # Errors
    ///
    /// [`BaselineError::NoStorage`] if `kv` is `SsdArray` and the spec has
    /// no storage devices.
    pub fn new(
        spec: &SystemSpec,
        model: &ModelConfig,
        kv: KvLocation,
    ) -> Result<Self, BaselineError> {
        if kv == KvLocation::SsdArray && spec.storage.device_count() == 0 {
            return Err(BaselineError::NoStorage);
        }
        Ok(FlexGenSystem {
            spec: spec.clone(),
            model: model.clone(),
            kv,
            sim_layers: 8,
            uvm_kv_bw: None,
        })
    }

    /// Overrides the number of simulated layers (default 8).
    pub fn with_sim_layers(mut self, layers: u32) -> Self {
        assert!(layers >= 1, "must simulate at least one layer");
        self.sim_layers = layers;
        self
    }

    pub(crate) fn with_uvm_kv_bw(mut self, bw: f64) -> Self {
        self.uvm_kv_bw = Some(bw);
        self
    }

    /// The KV location.
    pub fn kv_location(&self) -> KvLocation {
        self.kv
    }

    /// The model.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The system spec.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Checks whether a job fits, mirroring the paper's "CPU OOM" bars.
    ///
    /// # Errors
    ///
    /// * [`BaselineError::HostOom`] for FLEX(DRAM) jobs whose weights +
    ///   KV + workspace exceed host DRAM,
    /// * [`BaselineError::StorageCapacity`] for FLEX(SSD) jobs beyond the
    ///   array.
    pub fn check_capacity(
        &self,
        batch: u32,
        context: u64,
        output: u64,
    ) -> Result<(), BaselineError> {
        let max_ctx = context + output;
        let kv = self.model.kv_bytes_per_token() * batch as u64 * max_ctx;
        let workspace = 32u64 << 30;
        match self.kv {
            KvLocation::HostDram => {
                let weights = if self.model.weight_bytes() < 200_000_000_000 {
                    self.model.weight_bytes()
                } else {
                    0 // >100B weights live on storage even in FLEX(DRAM)
                };
                // FlexGen keeps the KV cache in pinned, double-buffered
                // segments (~1.25x) and needs an fp32 score workspace for
                // the CPU attention — this is what caps 66B/32K at batch 2
                // (Fig. 11a).
                let kv = kv + kv / 4;
                let scores = batch as u64 * self.model.heads() as u64 * max_ctx * 4;
                let needed = weights + kv + scores + workspace;
                if needed > self.spec.host.dram_bytes {
                    return Err(BaselineError::HostOom {
                        needed,
                        available: self.spec.host.dram_bytes,
                    });
                }
            }
            KvLocation::SsdArray => {
                let capacity = self.spec.storage.ssd_spec().capacity_bytes()
                    * self.spec.storage.device_count() as u64;
                if kv > capacity {
                    return Err(BaselineError::StorageCapacity { needed: kv, available: capacity });
                }
            }
        }
        Ok(())
    }

    /// The largest batch (power of two up to `limit`) that fits.
    pub fn max_batch(&self, context: u64, output: u64, limit: u32) -> Option<u32> {
        let mut best = None;
        let mut bs = 1;
        while bs <= limit {
            if self.check_capacity(bs, context, output).is_ok() {
                best = Some(bs);
            }
            bs *= 2;
        }
        best
    }

    fn build_world(&self) -> Result<BuiltSystem, BaselineError> {
        BuiltSystem::build(&self.spec, None, self.model.head_dim())
            .map_err(|e| BaselineError::Platform(e.to_string()))
    }

    fn is_chassis(&self) -> bool {
        matches!(self.spec.storage, StorageConfig::SmartSsdChassis { .. })
    }

    fn build_decode_step(&self, sys: &BuiltSystem, batch: u32, context: u64) -> TaskGraph {
        let mut g = TaskGraph::new();
        let m = &self.model;
        let n = sys.devices.len();
        let bs = batch as f64;
        let s = context as f64;
        let kv_layer_bytes = bs * 2.0 * s * m.kv_dim() as f64 * 2.0;
        let page = self.spec.storage.ssd_spec().page_bytes() as f64;
        let source = weight_source(sys, m);
        let fabric = if self.is_chassis() { FABRIC_EFFICIENCY } else { 1.0 };

        let mut prev_w: Option<TaskId> = None;
        let mut prev_layer: Option<TaskId> = None;
        for l in 0..self.sim_layers {
            // 1-2: attention weights + QKV projection on the GPU.
            let w_attn = load_weights(
                &mut g,
                sys,
                source,
                &format!("loadw:attn{l}"),
                m.attn_weight_bytes_per_layer() as f64,
                prev_w,
            );
            let mut deps = vec![w_attn];
            deps.extend(prev_layer);
            let qkv =
                g.compute(format!("qkv:l{l}"), bs * m.qkv_flops_per_token_layer(), sys.gpu, &deps);
            // Fresh activations hop to the host for the CPU attention.
            g.transfer(
                format!("act:down{l}"),
                bs * m.hidden() as f64 * 2.0,
                sys.topo.route(sys.gpu_node, sys.host_node).expect("route exists"),
                &[qkv],
            );

            // 3: the KV cache reaches the CPU.
            let mut atn_deps = vec![qkv];
            match self.kv {
                KvLocation::HostDram => {}
                KvLocation::SsdArray => {
                    let mut parts = Vec::with_capacity(n);
                    for (d, dev) in sys.devices.iter().enumerate() {
                        let mut tail = sys.device_to_host_route(d).to_vec();
                        tail.push(sys.host_dram);
                        let bytes = kv_layer_bytes / n as f64 / (HOST_IO_EFFICIENCY * fabric);
                        parts.push(dev.ssd.read_task(
                            &mut g,
                            &format!("loadkv:l{l}.d{d}"),
                            bytes,
                            &tail,
                            &[],
                        ));
                    }
                    atn_deps.push(g.milestone(format!("sync:kv{l}"), &parts));
                }
            }

            // 4: CPU attention — compute in parallel with the DRAM sweep
            // over the KV bytes (memory-bound GEMV).
            let atn_c = g.compute(
                format!("atn:cpu{l}"),
                bs * m.heads() as f64 * 4.0 * s * m.head_dim() as f64,
                sys.cpu,
                &atn_deps,
            );
            // The KV sweep runs at the CPU attention's effective
            // bandwidth (or the UVM fault path's, for DS+UVM), modeled by
            // inflating the bytes crossing the DRAM port.
            let sweep_bw = self.uvm_kv_bw.unwrap_or(CPU_ATTENTION_BW).min(CPU_ATTENTION_BW);
            let sweep_bytes = kv_layer_bytes * (self.spec.host.dram_bw / sweep_bw);
            let atn_m =
                g.transfer(format!("atnmem:l{l}"), sweep_bytes, vec![sys.host_dram], &atn_deps);
            let atn_done = g.milestone(format!("sync:atn{l}"), &[atn_c, atn_m]);

            // Result hops back to the GPU.
            let act_up = g.transfer(
                format!("act:up{l}"),
                bs * m.hidden() as f64 * 2.0,
                sys.host_to_gpu_route(),
                &[atn_done],
            );

            // 7: new KV entries written back (buffered page-aligned by the
            // framework; off the critical path).
            if self.kv == KvLocation::SsdArray {
                for (d, dev) in sys.devices.iter().enumerate() {
                    let payload = bs * 2.0 * m.kv_dim() as f64 * 2.0 / n as f64;
                    let bytes = (payload / page).ceil() * page;
                    let store = dev.ssd.write_task(
                        &mut g,
                        &format!("storekv:l{l}.d{d}"),
                        bytes,
                        sys.host_to_device_route(d),
                        &[qkv],
                    );
                    g.set_background(store);
                }
            }

            // 5-6: MLP weights + feed-forward.
            let w_mlp = load_weights(
                &mut g,
                sys,
                source,
                &format!("loadw:mlp{l}"),
                (m.decode_weight_traffic_bytes(batch) / m.layers() as u64
                    - m.attn_weight_bytes_per_layer()) as f64,
                Some(w_attn),
            );
            let mlp = g.compute(
                format!("mlp:l{l}"),
                bs * m.mlp_flops_per_token_layer(l),
                sys.gpu,
                &[w_mlp, act_up],
            );
            prev_layer = Some(mlp);
            prev_w = Some(w_mlp);
        }
        g
    }

    /// Runs the decode phase.
    ///
    /// # Errors
    ///
    /// Capacity errors ("CPU OOM") or wrapped simulation errors.
    pub fn run_decode(
        &self,
        batch: u32,
        context: u64,
        output_len: u64,
    ) -> Result<RunReport, BaselineError> {
        self.check_capacity(batch, context, output_len)?;
        let mut sys = self.build_world()?;
        let mid_ctx = context + output_len / 2;
        let layer_scale = self.model.layers() as f64 / self.sim_layers as f64;
        let graph = self.build_decode_step(&sys, batch, mid_ctx);
        let timeline = execute(&mut sys.engine, &graph).map_err(BaselineError::Sim)?;
        let avg = timeline.makespan().as_secs_f64() * layer_scale;

        let m = &self.model;
        let bs = batch as f64;
        let s = mid_ctx as f64;
        let layers = m.layers() as f64;
        let kv_step = bs * 2.0 * s * m.kv_dim() as f64 * 2.0 * layers;
        let weights = m.decode_weight_traffic_bytes(batch) as f64;
        let host_pcie = match self.kv {
            KvLocation::HostDram => weights,
            KvLocation::SsdArray => weights + kv_step,
        };
        // Naive per-step writes: each 256 B KV entry programs a page
        // unless buffered; FlexGen buffers per-layer, so the per-step
        // write is one page per (layer × device) at minimum.
        let nand_writes =
            hilos_core::spill_nand_bytes_per_token(m, 1, self.spec.storage.ssd_spec().page_bytes())
                * bs;

        Ok(RunReport {
            batch,
            output_len,
            avg_step_seconds: avg,
            decode_seconds: avg * output_len as f64,
            alpha: 0.0,
            category_seconds: timeline.category_seconds(&graph),
            gpu_utilization: timeline.utilization(sys.gpu),
            cpu_utilization: timeline.utilization(sys.cpu),
            dram_utilization: timeline.utilization(sys.host_dram),
            host_pcie_bytes_per_step: host_pcie,
            internal_read_bytes_per_step: 0.0,
            nand_write_bytes_per_step: if self.kv == KvLocation::SsdArray {
                nand_writes
            } else {
                0.0
            },
        })
    }

    /// Runs the prefill phase (FlashAttention on the GPU, like every
    /// system in §6.1).
    ///
    /// # Errors
    ///
    /// Capacity errors or wrapped simulation errors.
    pub fn run_prefill(&self, batch: u32, context: u64) -> Result<f64, BaselineError> {
        self.check_capacity(batch, context, 1)?;
        let mut sys = self.build_world()?;
        let m = &self.model;
        let layer_scale = m.layers() as f64 / self.sim_layers as f64;
        let source = weight_source(&sys, m);
        let mut g = TaskGraph::new();
        let per_layer_flops = batch as f64 * m.prefill_flops(context) / m.layers() as f64;
        let kv_layer = batch as f64 * 2.0 * context as f64 * m.kv_dim() as f64 * 2.0;
        let mut prev_w: Option<TaskId> = None;
        let mut prev_layer: Option<TaskId> = None;
        for l in 0..self.sim_layers {
            let w = load_weights(
                &mut g,
                &sys,
                source,
                &format!("loadw:pf{l}"),
                (m.attn_weight_bytes_per_layer()
                    + m.decode_weight_traffic_bytes(batch) / m.layers() as u64)
                    as f64,
                prev_w,
            );
            let mut deps = vec![w];
            deps.extend(prev_layer);
            let c = g.compute(format!("prefill:l{l}"), per_layer_flops, sys.gpu, &deps);
            let done = match self.kv {
                KvLocation::HostDram => {
                    let mut route = sys.topo.route(sys.gpu_node, sys.host_node).unwrap();
                    route.push(sys.host_dram);
                    g.transfer(format!("writekv:pf{l}"), kv_layer, route, &[c])
                }
                KvLocation::SsdArray => {
                    let n = sys.devices.len();
                    let mut parts = Vec::new();
                    for (d, dev) in sys.devices.iter().enumerate() {
                        parts.push(dev.ssd.write_task(
                            &mut g,
                            &format!("writekv:pf{l}.d{d}"),
                            kv_layer / n as f64,
                            sys.gpu_to_device_route(d),
                            &[c],
                        ));
                    }
                    g.milestone(format!("sync:pf{l}"), &parts)
                }
            };
            prev_layer = Some(done);
            prev_w = Some(w);
        }
        let timeline = execute(&mut sys.engine, &g).map_err(BaselineError::Sim)?;
        Ok(timeline.makespan().as_secs_f64() * layer_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilos_llm::presets;

    fn flex_ssd() -> FlexGenSystem {
        FlexGenSystem::new(&SystemSpec::a100_pm9a3(4), &presets::opt_66b(), KvLocation::SsdArray)
            .unwrap()
            .with_sim_layers(4)
    }

    fn flex_dram() -> FlexGenSystem {
        FlexGenSystem::new(&SystemSpec::a100_pm9a3(4), &presets::opt_66b(), KvLocation::HostDram)
            .unwrap()
            .with_sim_layers(4)
    }

    #[test]
    fn flex_dram_oom_matches_fig11() {
        // FLEX(DRAM) on 66B/32K is capped at batch 2 by the 512 GB host.
        let f = flex_dram();
        assert_eq!(f.max_batch(32 * 1024, 64, 16), Some(2));
        assert!(matches!(f.check_capacity(4, 32 * 1024, 64), Err(BaselineError::HostOom { .. })));
    }

    #[test]
    fn flex_ssd_supports_large_batches() {
        let f = flex_ssd();
        f.check_capacity(16, 32 * 1024, 64).unwrap();
        assert_eq!(f.max_batch(32 * 1024, 64, 16), Some(16));
    }

    #[test]
    fn kv_io_dominates_flex_ssd_fig2b() {
        // Fig 2b: KV-cache I/O over 60% of execution time at long context.
        let f = flex_ssd();
        let r = f.run_decode(16, 32 * 1024, 4).unwrap();
        let total: f64 = r.category_seconds.iter().map(|(_, s)| s).sum();
        let kv: f64 = r
            .category_seconds
            .iter()
            .filter(|(c, _)| c == "loadkv" || c == "atnmem")
            .map(|(_, s)| s)
            .sum();
        assert!(kv / total > 0.5, "kv fraction {}", kv / total);
    }

    #[test]
    fn dram_beats_ssd_at_feasible_batch() {
        let d = flex_dram().run_decode(2, 32 * 1024, 4).unwrap();
        let s = flex_ssd().run_decode(2, 32 * 1024, 4).unwrap();
        assert!(
            d.tokens_per_second() > s.tokens_per_second(),
            "dram {} vs ssd {}",
            d.tokens_per_second(),
            s.tokens_per_second()
        );
    }

    #[test]
    fn ssd_wins_overall_via_batch_at_long_context() {
        // The FLEX(SSD) advantage: batch 16 fits, while DRAM stops at 2.
        let d = flex_dram().run_decode(2, 64 * 1024, 4);
        let s = flex_ssd().run_decode(16, 64 * 1024, 4).unwrap();
        // At 64K the DRAM variant can't even hold batch 2.
        assert!(d.is_err() || s.tokens_per_second() > 0.0);
        assert!(s.tokens_per_second() > 0.0);
    }

    #[test]
    fn absolute_throughput_in_paper_ballpark() {
        // FLEX(DRAM) 66B/32K/bs2 lands near the paper's ~0.4-0.6 tok/s
        // (Fig. 11a axis), sanity-checking the calibration.
        let r = flex_dram().run_decode(2, 32 * 1024, 4).unwrap();
        let t = r.tokens_per_second();
        assert!((0.2..1.2).contains(&t), "tok/s = {t}");
    }

    #[test]
    fn chassis_jbof_no_faster_than_four_pm9a3() {
        // §6.3: FLEX(16 PCIe 3.0 SSDs) reaches only 0.64-0.94x FLEX(SSD).
        let four = flex_ssd().run_decode(16, 32 * 1024, 4).unwrap();
        let jbof = FlexGenSystem::new(
            &SystemSpec::a100_chassis_no_fpga(16),
            &presets::opt_66b(),
            KvLocation::SsdArray,
        )
        .unwrap()
        .with_sim_layers(4)
        .run_decode(16, 32 * 1024, 4)
        .unwrap();
        let ratio = jbof.tokens_per_second() / four.tokens_per_second();
        assert!((0.55..1.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn prefill_runs() {
        let t = flex_ssd().run_prefill(4, 16 * 1024).unwrap();
        assert!(t > 0.0);
    }

    #[test]
    fn cpu_attention_agrees_with_accelerator_kernel() {
        // The baselines' CPU attention and the HILOS accelerator kernel
        // compute the same mathematical function over the same FP16
        // cache; they differ only in summation strategy (online vs
        // two-pass softmax), so outputs agree to FP32 round-off.
        let mut state = 91u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0
        };
        let q = hilos_accel::MatrixF32::from_fn(2, 32, |_, _| next()).to_f16();
        let k = hilos_accel::MatrixF32::from_fn(300, 32, |_, _| next()).to_f16();
        let v = hilos_accel::MatrixF32::from_fn(300, 32, |_, _| next()).to_f16();
        let scale = 1.0 / 32f32.sqrt();
        let cpu = functional_cpu_attention(&q, &k, &v, scale);
        let accel = hilos_accel::attention_kernel(&hilos_accel::AttentionInputs {
            queries: &q,
            keys: &k,
            values: &v,
            valid: None,
            scale,
            host_tail: None,
        })
        .unwrap();
        assert!(cpu.max_abs_diff(&accel) < 1e-4);
    }
}
