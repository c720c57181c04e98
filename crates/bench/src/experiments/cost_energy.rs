//! Figures 16 and 17 — cost efficiency, endurance, energy, multi-node.

use crate::{run_flex_dram_autobatch, run_flex_ssd, run_hilos_config, SIM_LAYERS};
use hilos_baselines::VllmMultiNode;
use hilos_core::{HilosConfig, RunReport};
use hilos_llm::{presets, RequestClass};
use hilos_metrics::{
    energy, tokens_per_second_per_dollar, ActivitySnapshot, EnduranceModel, Table,
};
use hilos_platform::SystemSpec;

/// Figure 16(a): cost efficiency (tokens/s/$) normalized to FLEX(SSD) on
/// the A100, for 66B and 175B at 16K/32K.
pub fn fig16a() -> String {
    let mut out = String::from("Figure 16(a) — cost efficiency (token/s/$, normalized)\n");
    let mut t = Table::new(vec!["gpu", "model", "ctx", "system", "tok/s", "tok/s/$ (norm)"]);
    for model in [presets::opt_66b(), presets::opt_175b()] {
        for s in [16 * 1024u64, 32 * 1024] {
            let flex_spec = SystemSpec::a100_pm9a3(4);
            let Ok(base) = run_flex_ssd(&model, 16, s).map(|r| r.tokens_per_second()) else {
                continue;
            };
            let base_eff = tokens_per_second_per_dollar(&flex_spec, base);
            let mut push = |gpu: &str, name: &str, tps: Option<f64>, spec: &SystemSpec| {
                let cell = match tps {
                    Some(v) => format!("{:.2}x", tokens_per_second_per_dollar(spec, v) / base_eff),
                    None => "OOM".into(),
                };
                t.row(vec![
                    gpu.into(),
                    model.name().into(),
                    format!("{}K", s / 1024),
                    name.into(),
                    tps.map(|v| format!("{v:.4}")).unwrap_or_else(|| "-".into()),
                    cell,
                ]);
            };
            push("A100", "FLEX(SSD)", Some(base), &flex_spec);
            let dram =
                run_flex_dram_autobatch(&model, 16, s).ok().map(|(_, r)| r.tokens_per_second());
            push("A100", "FLEX(DRAM)", dram, &flex_spec);
            for n in [4usize, 8, 16] {
                let spec = SystemSpec::a100_smartssd(n);
                let tps = run_hilos_config(&spec, &model, &HilosConfig::new(n), 16, s)
                    .ok()
                    .map(|r| r.tokens_per_second());
                push("A100", &format!("HILOS({n})"), tps, &spec);
            }
            // H100 comparisons.
            let h100_flex_spec = SystemSpec::h100_pm9a3(4);
            let h100_flex = hilos_baselines::FlexGenSystem::new(
                &h100_flex_spec,
                &model,
                hilos_baselines::KvLocation::SsdArray,
            )
            .unwrap()
            .with_sim_layers(SIM_LAYERS)
            .run_decode(16, s, 8)
            .ok()
            .map(|r| r.tokens_per_second());
            push("H100", "FLEX(SSD)", h100_flex, &h100_flex_spec);
            let h100_hilos_spec = SystemSpec::h100_smartssd(16);
            let h100_hilos =
                run_hilos_config(&h100_hilos_spec, &model, &HilosConfig::new(16), 16, s)
                    .ok()
                    .map(|r| r.tokens_per_second());
            push("H100", "HILOS(16)", h100_hilos, &h100_hilos_spec);
        }
    }
    out.push_str(&t.to_string());
    out
}

/// Figure 16(b): endurance — total serviceable requests (millions).
pub fn fig16b() -> String {
    let mut out = String::from("Figure 16(b) — serviceable requests (millions, 16 devices)\n");
    let mut t =
        Table::new(vec!["class", "model", "FLEX(16SSD)", "HILOS c=16", "HILOS c=32", "gain(c=16)"]);
    let e = EnduranceModel::smartssd_array(16);
    for class in RequestClass::all() {
        for model in [presets::opt_30b(), presets::opt_66b(), presets::opt_175b()] {
            let flex = e.serviceable_requests(e.flexgen_request_bytes(&model, class, 16));
            let h16 = e.serviceable_requests(e.hilos_request_bytes(&model, class, 0.5, 16));
            let h32 = e.serviceable_requests(e.hilos_request_bytes(&model, class, 0.5, 32));
            t.row(vec![
                class.to_string(),
                model.name().into(),
                format!("{:.2}", flex / 1e6),
                format!("{:.2}", h16 / 1e6),
                format!("{:.2}", h32 / 1e6),
                format!("{:.2}x", h16 / flex),
            ]);
        }
    }
    out.push_str(&t.to_string());
    out
}

fn activity_of(report: &RunReport, spec: &SystemSpec) -> ActivitySnapshot {
    let n = spec.storage.device_count() as f64;
    let read_bw = spec.storage.ssd_spec().seq_read_bw();
    let ssd_bytes = report.internal_read_bytes_per_step + report.host_pcie_bytes_per_step;
    let ssd = (ssd_bytes / (n * read_bw * report.avg_step_seconds)).clamp(0.0, 1.0);
    ActivitySnapshot {
        seconds: report.avg_step_seconds,
        gpu: report.gpu_utilization,
        cpu: report.cpu_utilization,
        dram: report.dram_utilization,
        ssd,
    }
}

/// Figure 17(a): energy per generated token, by component, normalized to
/// FLEX(SSD).
pub fn fig17a() -> String {
    let mut out = String::from("Figure 17(a) — energy per token (J), breakdown\n");
    let mut t =
        Table::new(vec!["model", "system", "cpu", "dram", "gpu", "ssd", "total J/tok", "norm"]);
    for model in [presets::opt_30b(), presets::opt_66b(), presets::opt_175b()] {
        let s = 32 * 1024u64;
        let mut rows: Vec<(String, f64, hilos_metrics::EnergyBreakdown)> = Vec::new();
        if let Ok(r) = run_flex_ssd(&model, 16, s) {
            let spec = SystemSpec::a100_pm9a3(4);
            let e = energy(&spec, &activity_of(&r, &spec));
            rows.push(("FLEX(SSD)".into(), r.batch as f64, e));
        }
        if let Ok((bs, r)) = run_flex_dram_autobatch(&model, 16, s) {
            let spec = SystemSpec::a100_pm9a3(4);
            let e = energy(&spec, &activity_of(&r, &spec));
            rows.push((format!("FLEX(DRAM) bs={bs}"), bs as f64, e));
        }
        for n in [4usize, 8, 16] {
            let spec = SystemSpec::a100_smartssd(n);
            if let Ok(r) = run_hilos_config(&spec, &model, &HilosConfig::new(n), 16, s) {
                let e = energy(&spec, &activity_of(&r, &spec));
                rows.push((format!("HILOS({n})"), r.batch as f64, e));
            }
        }
        let base = rows.first().map(|(_, bs, e)| e.total() / bs).unwrap_or(1.0);
        for (name, bs, e) in rows {
            t.row(vec![
                model.name().into(),
                name,
                format!("{:.1}", e.cpu_j / bs),
                format!("{:.1}", e.dram_j / bs),
                format!("{:.1}", e.gpu_j / bs),
                format!("{:.1}", e.ssd_j / bs),
                format!("{:.1}", e.total() / bs),
                format!("{:.2}", (e.total() / bs) / base),
            ]);
        }
    }
    out.push_str(&t.to_string());
    out
}

/// Figure 17(b): multi-node vLLM (2×4×A6000) versus offloading systems on
/// OPT-175B.
pub fn fig17b() -> String {
    let mut out = String::from("Figure 17(b) — total throughput (token/s), OPT-175B\n");
    let mut t = Table::new(vec!["ctx", "FLEX(SSD)", "FLEX(DRAM)", "vLLM(8xA6000)", "HILOS(16)"]);
    let model = presets::opt_175b();
    let vllm = VllmMultiNode::paper_testbed();
    for s in [16 * 1024u64, 32 * 1024] {
        let flex = run_flex_ssd(&model, 16, s).map(|r| r.tokens_per_second());
        let dram = run_flex_dram_autobatch(&model, 16, s).map(|(_, r)| r.tokens_per_second());
        let v = vllm.tokens_per_second(&model, 1, s);
        let h =
            run_hilos_config(&SystemSpec::a100_smartssd(16), &model, &HilosConfig::new(16), 16, s)
                .map(|r| r.tokens_per_second());
        t.row(vec![
            format!("{}K", s / 1024),
            crate::tps_cell(&flex),
            crate::tps_cell(&dram),
            crate::tps_cell(&v),
            crate::tps_cell(&h),
        ]);
    }
    out.push_str(&t.to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig16a_hilos_more_cost_effective_than_flex_at_66b() {
        // Paper: up to 2.02x higher tokens/s/$ for the 66B model.
        let model = presets::opt_66b();
        let flex_spec = SystemSpec::a100_pm9a3(4);
        let base = run_flex_ssd(&model, 16, 32 * 1024).unwrap().tokens_per_second();
        let base_eff = tokens_per_second_per_dollar(&flex_spec, base);
        let spec = SystemSpec::a100_smartssd(16);
        let h = run_hilos_config(&spec, &model, &HilosConfig::new(16), 16, 32 * 1024)
            .unwrap()
            .tokens_per_second();
        let eff = tokens_per_second_per_dollar(&spec, h) / base_eff;
        assert!(eff > 1.0, "HILOS cost efficiency {eff} should beat FLEX(SSD)");
        assert!(eff < 5.0, "implausibly high {eff}");
    }

    #[test]
    fn fig17a_hilos_saves_energy() {
        // Paper: up to 85% energy reduction vs the worst baseline.
        let model = presets::opt_66b();
        let flex_spec = SystemSpec::a100_pm9a3(4);
        let r = run_flex_ssd(&model, 16, 32 * 1024).unwrap();
        let flex_jpt = energy(&flex_spec, &activity_of(&r, &flex_spec)).total() / r.batch as f64;
        let spec = SystemSpec::a100_smartssd(16);
        let h = run_hilos_config(&spec, &model, &HilosConfig::new(16), 16, 32 * 1024).unwrap();
        let hilos_jpt = energy(&spec, &activity_of(&h, &spec)).total() / h.batch as f64;
        let saving = 1.0 - hilos_jpt / flex_jpt;
        // Direction and a solid margin; our conservative GPU/SmartSSD
        // active-power figures keep the magnitude below the paper's
        // up-to-85% headline (`repro fig17a` prints each system's J/token
        // normalized to FLEX(SSD)).
        assert!(saving > 0.25, "energy saving {saving} too small");
    }

    #[test]
    fn fig17b_hilos_beats_multinode_vllm() {
        // Paper: 1.64x-1.81x over the 8-GPU vLLM deployment.
        let model = presets::opt_175b();
        let v = VllmMultiNode::paper_testbed().tokens_per_second(&model, 1, 16 * 1024).unwrap();
        let h = run_hilos_config(
            &SystemSpec::a100_smartssd(16),
            &model,
            &HilosConfig::new(16),
            16,
            16 * 1024,
        )
        .unwrap()
        .tokens_per_second();
        let ratio = h / v;
        assert!(ratio > 1.2, "HILOS/vLLM ratio {ratio}");
    }

    #[test]
    fn fig16b_gains_in_paper_band() {
        let s = fig16b();
        assert!(s.contains("HILOS c=16"));
    }
}
