//! Transformer model configurations (Table 2 of the paper) and the
//! size/FLOP arithmetic every scheduler relies on.

use std::fmt;

/// Bytes per parameter / element at FP16.
pub const FP16_BYTES: u64 = 2;

/// Mixture-of-Experts configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoeConfig {
    /// Total experts per MoE layer.
    pub experts: u32,
    /// Experts activated per token (2 for Mixtral and GLaM).
    pub active_experts: u32,
    /// A MoE layer every `interval` layers (1 = every layer, 2 = GLaM's
    /// interleaved dense/MoE stack).
    pub interval: u32,
}

/// Feed-forward style: OPT/GLaM use two projection matrices, gated models
/// (Qwen, Mixtral) use three (gate/up/down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MlpKind {
    /// Two matrices: up (h×i) and down (i×h).
    TwoMatrix,
    /// Three matrices: gate, up (h×i) and down (i×h).
    Gated,
}

/// A decoder-only transformer configuration.
///
/// # Examples
///
/// ```
/// use hilos_llm::presets;
///
/// let opt175 = presets::opt_175b();
/// // ~175 billion parameters.
/// let params = opt175.weight_bytes() / 2;
/// assert!((170e9..180e9).contains(&(params as f64)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    name: String,
    layers: u32,
    hidden: u32,
    intermediate: u32,
    heads: u32,
    kv_heads: u32,
    vocab: u32,
    mlp_kind: MlpKind,
    moe: Option<MoeConfig>,
}

impl ModelConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `heads` is not divisible by `kv_heads` or `hidden` by
    /// `heads`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        layers: u32,
        hidden: u32,
        intermediate: u32,
        heads: u32,
        kv_heads: u32,
        vocab: u32,
        mlp_kind: MlpKind,
        moe: Option<MoeConfig>,
    ) -> Self {
        assert!(heads > 0 && kv_heads > 0, "head counts must be positive");
        assert_eq!(heads % kv_heads, 0, "heads must be divisible by kv_heads");
        assert_eq!(hidden % heads, 0, "hidden must be divisible by heads");
        ModelConfig {
            name: name.into(),
            layers,
            hidden,
            intermediate,
            heads,
            kv_heads,
            vocab,
            mlp_kind,
            moe,
        }
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Transformer layer count.
    pub fn layers(&self) -> u32 {
        self.layers
    }

    /// Hidden dimension.
    pub fn hidden(&self) -> u32 {
        self.hidden
    }

    /// Feed-forward intermediate dimension.
    pub fn intermediate(&self) -> u32 {
        self.intermediate
    }

    /// Query head count.
    pub fn heads(&self) -> u32 {
        self.heads
    }

    /// KV head count (equal to `heads` for MHA).
    pub fn kv_heads(&self) -> u32 {
        self.kv_heads
    }

    /// Per-head dimension.
    pub fn head_dim(&self) -> u32 {
        self.hidden / self.heads
    }

    /// Query-group size `d_group = heads / kv_heads` (Table 2).
    pub fn d_group(&self) -> u32 {
        self.heads / self.kv_heads
    }

    /// MoE configuration, if any.
    pub fn moe(&self) -> Option<MoeConfig> {
        self.moe
    }

    /// KV projection width: `kv_heads × head_dim`.
    pub fn kv_dim(&self) -> u32 {
        self.kv_heads * self.head_dim()
    }

    fn mlp_matrices(&self) -> u64 {
        match self.mlp_kind {
            MlpKind::TwoMatrix => 2,
            MlpKind::Gated => 3,
        }
    }

    /// Attention weight bytes per layer (`W_Q`, `W_K`, `W_V`, `W_O`).
    pub fn attn_weight_bytes_per_layer(&self) -> u64 {
        let h = self.hidden as u64;
        let kv = self.kv_dim() as u64;
        (h * h + 2 * h * kv + h * h) * FP16_BYTES
    }

    /// Feed-forward weight bytes per layer: the dense matrices for dense
    /// layers, all experts (plus router) for MoE layers.
    pub fn mlp_weight_bytes_per_layer(&self, layer: u32) -> u64 {
        let h = self.hidden as u64;
        let i = self.intermediate as u64;
        let dense = self.mlp_matrices() * h * i * FP16_BYTES;
        match self.moe {
            Some(m) if layer.is_multiple_of(m.interval) => {
                let router = h * m.experts as u64 * FP16_BYTES;
                m.experts as u64 * dense + router
            }
            _ => dense,
        }
    }

    /// Total model weight bytes (FP16), including embeddings.
    pub fn weight_bytes(&self) -> u64 {
        let embed = self.vocab as u64 * self.hidden as u64 * FP16_BYTES;
        let layers: u64 = (0..self.layers)
            .map(|l| self.attn_weight_bytes_per_layer() + self.mlp_weight_bytes_per_layer(l))
            .sum();
        embed + layers
    }

    /// KV-cache bytes per token across all layers (K + V, FP16).
    pub fn kv_bytes_per_token(&self) -> u64 {
        2 * self.layers as u64 * self.kv_dim() as u64 * FP16_BYTES
    }

    /// X-cache bytes per token across all layers: the pre-projection
    /// activation `X` is `hidden`-wide per layer (§4.2).
    pub fn x_bytes_per_token(&self) -> u64 {
        self.layers as u64 * self.hidden as u64 * FP16_BYTES
    }

    /// Cache bytes per token across all layers when a fraction `alpha` of
    /// the context keeps X-cache and the rest KV-cache (§4.2):
    /// `(1 − α)·kv_bytes_per_token + α·x_bytes_per_token`. Unrounded;
    /// each caller rounds as its own accounting needs.
    pub fn cache_bytes_per_token(&self, alpha: f64) -> f64 {
        (1.0 - alpha) * self.kv_bytes_per_token() as f64 + alpha * self.x_bytes_per_token() as f64
    }

    /// Size ratio X-cache / KV-cache: 0.5 for MHA (the paper's "half the
    /// storage"), but above 1 for aggressive GQA, where X-cache stops
    /// paying off.
    pub fn x_to_kv_ratio(&self) -> f64 {
        self.x_bytes_per_token() as f64 / self.kv_bytes_per_token() as f64
    }

    /// Expected number of *distinct* experts hit by a batch of `batch`
    /// tokens on a MoE layer (each token picks `active_experts`). Dense
    /// models return 1.0 meaning "the one FFN".
    pub fn expected_loaded_experts(&self, batch: u32) -> f64 {
        match self.moe {
            None => 1.0,
            Some(m) => {
                let e = m.experts as f64;
                let draws = (batch * m.active_experts) as f64;
                e * (1.0 - (1.0 - 1.0 / e).powf(draws))
            }
        }
    }

    /// Weight bytes that must reach the GPU for one decoding step of a
    /// whole batch (attention weights + the experts actually activated).
    pub fn decode_weight_traffic_bytes(&self, batch: u32) -> u64 {
        let h = self.hidden as u64;
        let i = self.intermediate as u64;
        let dense = self.mlp_matrices() * h * i * FP16_BYTES;
        let mut total = 0u64;
        for l in 0..self.layers {
            total += self.attn_weight_bytes_per_layer();
            total += match self.moe {
                Some(m) if l % m.interval == 0 => {
                    let loaded = self.expected_loaded_experts(batch).min(m.experts as f64);
                    (loaded * dense as f64) as u64 + h * m.experts as u64 * FP16_BYTES
                }
                _ => dense,
            };
        }
        total
    }

    /// FLOPs of the QKV projection for one token, one layer.
    pub fn qkv_flops_per_token_layer(&self) -> f64 {
        let h = self.hidden as f64;
        let kv = self.kv_dim() as f64;
        2.0 * h * (h + 2.0 * kv)
    }

    /// FLOPs of the attention (QKᵀ + SV over an `s`-token context) for one
    /// token, one layer, all heads.
    pub fn attn_flops_per_token_layer(&self, s: u64) -> f64 {
        4.0 * s as f64 * self.hidden as f64
    }

    /// FLOPs of the output projection + feed-forward for one token, one
    /// layer (active experts only for MoE).
    pub fn mlp_flops_per_token_layer(&self, layer: u32) -> f64 {
        let h = self.hidden as f64;
        let i = self.intermediate as f64;
        let proj_o = 2.0 * h * h;
        let dense = 2.0 * self.mlp_matrices() as f64 * h * i;
        match self.moe {
            Some(m) if layer.is_multiple_of(m.interval) => proj_o + m.active_experts as f64 * dense,
            _ => proj_o + dense,
        }
    }

    /// Total decode FLOPs per token over the whole model at context `s`
    /// (QKV + attention + MLP, all layers).
    pub fn decode_flops_per_token(&self, s: u64) -> f64 {
        (0..self.layers)
            .map(|l| {
                self.qkv_flops_per_token_layer()
                    + self.attn_flops_per_token_layer(s)
                    + self.mlp_flops_per_token_layer(l)
            })
            .sum()
    }

    /// Prefill FLOPs for an `s`-token prompt (causal attention ≈ s²·h per
    /// layer plus the projections for every token).
    pub fn prefill_flops(&self, s: u64) -> f64 {
        let s_f = s as f64;
        (0..self.layers)
            .map(|l| {
                s_f * (self.qkv_flops_per_token_layer() + self.mlp_flops_per_token_layer(l))
                    + 2.0 * s_f * s_f * self.hidden as f64
            })
            .sum()
    }
}

impl fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (L={} h={} heads={}/{} d_group={})",
            self.name,
            self.layers,
            self.hidden,
            self.heads,
            self.kv_heads,
            self.d_group()
        )
    }
}

/// The models of Table 2.
pub mod presets {
    use super::{MlpKind, ModelConfig, MoeConfig};

    /// OPT-30B: 48 layers, 7168 hidden, MHA.
    pub fn opt_30b() -> ModelConfig {
        ModelConfig::new("OPT-30B", 48, 7168, 28672, 64, 64, 50272, MlpKind::TwoMatrix, None)
    }

    /// OPT-66B: 64 layers, 9216 hidden, MHA.
    pub fn opt_66b() -> ModelConfig {
        ModelConfig::new("OPT-66B", 64, 9216, 36864, 72, 72, 50272, MlpKind::TwoMatrix, None)
    }

    /// OPT-175B: 96 layers, 12288 hidden, MHA — the headline model.
    pub fn opt_175b() -> ModelConfig {
        ModelConfig::new("OPT-175B", 96, 12288, 49152, 96, 96, 50272, MlpKind::TwoMatrix, None)
    }

    /// Qwen2.5-32B: dense + GQA (d_group = 5).
    pub fn qwen25_32b() -> ModelConfig {
        ModelConfig::new("Qwen2.5-32B", 64, 5120, 27648, 40, 8, 152064, MlpKind::Gated, None)
    }

    /// Mixtral-8×7B: MoE (8 experts, 2 active) + GQA (d_group = 4).
    pub fn mixtral_8x7b() -> ModelConfig {
        ModelConfig::new(
            "Mixtral-8x7B",
            32,
            4096,
            14336,
            32,
            8,
            32000,
            MlpKind::Gated,
            Some(MoeConfig { experts: 8, active_experts: 2, interval: 1 }),
        )
    }

    /// GLaM-143B: MoE (64 experts, 2 active, every other layer) + MHA.
    pub fn glam_143b() -> ModelConfig {
        ModelConfig::new(
            "GLaM-143B",
            32,
            4096,
            16384,
            32,
            32,
            50272,
            MlpKind::TwoMatrix,
            Some(MoeConfig { experts: 64, active_experts: 2, interval: 2 }),
        )
    }

    /// All Table 2 models in paper order.
    pub fn all() -> Vec<ModelConfig> {
        vec![opt_30b(), opt_66b(), opt_175b(), qwen25_32b(), mixtral_8x7b(), glam_143b()]
    }
}

#[cfg(test)]
mod tests {
    use super::presets::*;
    use super::*;

    #[test]
    fn parameter_counts_match_names() {
        let cases: [(ModelConfig, f64); 5] = [
            (opt_30b(), 30e9),
            (opt_66b(), 66e9),
            (opt_175b(), 175e9),
            (qwen25_32b(), 32e9),
            (mixtral_8x7b(), 47e9),
        ];
        for (m, expect) in cases {
            let params = (m.weight_bytes() / FP16_BYTES) as f64;
            let rel = (params - expect).abs() / expect;
            assert!(rel < 0.12, "{}: {params:.3e} vs {expect:.1e}", m.name());
        }
        // GLaM-143B with MoE every other layer.
        let glam = glam_143b();
        let params = (glam.weight_bytes() / FP16_BYTES) as f64;
        assert!((130e9..155e9).contains(&params), "GLaM params {params:.3e}");
    }

    #[test]
    fn d_group_matches_table2() {
        assert_eq!(opt_30b().d_group(), 1);
        assert_eq!(opt_175b().d_group(), 1);
        assert_eq!(qwen25_32b().d_group(), 5);
        assert_eq!(mixtral_8x7b().d_group(), 4);
        assert_eq!(glam_143b().d_group(), 1);
    }

    #[test]
    fn head_dims() {
        assert_eq!(opt_30b().head_dim(), 112);
        assert_eq!(opt_66b().head_dim(), 128);
        assert_eq!(opt_175b().head_dim(), 128);
        assert_eq!(qwen25_32b().head_dim(), 128);
    }

    #[test]
    fn kv_cache_scale_matches_fig2() {
        // Fig 2a: OPT-175B at bs=16, s=128K exceeds several TB.
        let m = opt_175b();
        let kv = m.kv_bytes_per_token() as f64 * 16.0 * 131_072.0;
        assert!(kv > 5e12, "kv={kv:.3e}");
        // Per-token KV: 96 layers * 96 heads * 128 dim * 2 (K+V) * 2 B.
        assert_eq!(m.kv_bytes_per_token(), 96 * 96 * 128 * 2 * 2);
    }

    #[test]
    fn kv_entry_per_head_is_256_bytes() {
        // §4.3: each per-head KV entry (K+V, fp16, d=128) is 256 bytes.
        let m = opt_66b();
        let per_head = 2 * m.head_dim() as u64 * FP16_BYTES;
        assert_eq!(per_head, 512); // K+V together; K alone = 256
    }

    #[test]
    fn x_cache_is_half_of_kv_for_mha() {
        for m in [opt_30b(), opt_66b(), opt_175b(), glam_143b()] {
            assert!((m.x_to_kv_ratio() - 0.5).abs() < 1e-9, "{}", m.name());
        }
        // For strong GQA the X-cache is larger than KV.
        assert!(qwen25_32b().x_to_kv_ratio() > 1.0);
        assert!(mixtral_8x7b().x_to_kv_ratio() > 1.0);
    }

    #[test]
    fn cache_bytes_per_token_blends_kv_and_x_by_alpha() {
        let m = opt_66b();
        let (kv, x) = (m.kv_bytes_per_token() as f64, m.x_bytes_per_token() as f64);
        assert_eq!(m.cache_bytes_per_token(0.0), kv);
        assert_eq!(m.cache_bytes_per_token(1.0), x);
        // MHA: X is half of KV, so α = 0.5 stores three quarters of KV.
        assert_eq!(m.cache_bytes_per_token(0.5), 0.75 * kv);
    }

    #[test]
    fn moe_expected_experts() {
        let mix = mixtral_8x7b();
        // bs=1: exactly 2 experts (approximately, by the formula slightly less).
        let one = mix.expected_loaded_experts(1);
        assert!((1.5..=2.0).contains(&one), "{one}");
        // Large batches converge to all experts.
        let many = mix.expected_loaded_experts(64);
        assert!(many > 7.9);
        // Dense model: single FFN.
        assert_eq!(opt_30b().expected_loaded_experts(16), 1.0);
    }

    #[test]
    fn decode_weight_traffic_below_full_weights_for_moe() {
        let glam = glam_143b();
        let traffic = glam.decode_weight_traffic_bytes(1) as f64;
        let full = glam.weight_bytes() as f64;
        assert!(traffic < 0.5 * full, "traffic {traffic:.3e} vs full {full:.3e}");
        // Dense model: traffic ~ all layer weights (no embedding).
        let opt = opt_66b();
        let t = opt.decode_weight_traffic_bytes(16) as f64;
        let f = opt.weight_bytes() as f64;
        assert!(t > 0.95 * f * 0.95 && t < f);
    }

    #[test]
    fn flops_orders_of_magnitude() {
        let m = opt_175b();
        // ~2 * 175e9 params FLOPs per token at short context.
        let f = m.decode_flops_per_token(1);
        assert!((2.0e11..6.0e11).contains(&f), "f={f:.3e}");
        // At 128K context attention dominates.
        let f_long = m.decode_flops_per_token(131_072);
        assert!(f_long > 2.0 * f);
        // Prefill scales superlinearly.
        let p8 = m.prefill_flops(8192);
        let p16 = m.prefill_flops(16384);
        assert!(p16 / p8 > 2.0);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn invalid_head_split_rejected() {
        let _ = ModelConfig::new("bad", 2, 100, 400, 7, 2, 1000, MlpKind::TwoMatrix, None);
    }
}
