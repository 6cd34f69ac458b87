//! Model architecture specifications (paper Table 2 plus helpers).

use crate::precision::Precision;
use serde::{Deserialize, Serialize};

/// Architecture description of a decoder-only transformer.
///
/// The fields mirror what the paper's Table 2 reports for Llama2-13B-chat,
/// Qwen2.5-32B-Instruct and Llama2-70B-chat, extended with the quantities
/// the cost model needs (intermediate size, KV-head count for GQA, vocab).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Display name, e.g. `"Llama2-13B-chat"`.
    pub name: String,
    /// Number of transformer decoder layers.
    pub layers: u32,
    /// Hidden (embedding) dimension `h`.
    pub hidden: u64,
    /// Number of attention (query) heads `n`.
    pub heads: u32,
    /// Number of key/value heads `g`; `g == heads` means classic MHA,
    /// `g < heads` means grouped-query attention (GQA), which shrinks the
    /// KV cache by `g / heads` (the paper notes this for 32B and 70B).
    pub kv_heads: u32,
    /// MLP intermediate size `i` (SwiGLU: three `h×i` projections).
    pub intermediate: u64,
    /// Vocabulary size (embedding + LM head).
    pub vocab: u64,
    /// Weight/activation/KV precision.
    pub precision: Precision,
}

impl ModelSpec {
    /// Llama2-13B-chat (Table 2: 26 GB, 40 layers, 40 heads, hidden 5120, FP16).
    pub fn llama2_13b() -> Self {
        Self {
            name: "Llama2-13B-chat".into(),
            layers: 40,
            hidden: 5120,
            heads: 40,
            kv_heads: 40,
            intermediate: 13824,
            vocab: 32000,
            precision: Precision::Fp16,
        }
    }

    /// Qwen2.5-32B-Instruct (Table 2: 64 GB, 64 layers, 40 heads, hidden 5120,
    /// BF16; uses GQA with 8 KV heads).
    pub fn qwen2_5_32b() -> Self {
        Self {
            name: "Qwen2.5-32B-Instruct".into(),
            layers: 64,
            hidden: 5120,
            heads: 40,
            kv_heads: 8,
            intermediate: 27648,
            vocab: 152064,
            precision: Precision::Bf16,
        }
    }

    /// Llama2-70B-chat (Table 2: 140 GB, 80 layers, 64 heads, hidden 8192,
    /// FP16; uses GQA with 8 KV heads).
    pub fn llama2_70b() -> Self {
        Self {
            name: "Llama2-70B-chat".into(),
            layers: 80,
            hidden: 8192,
            heads: 64,
            kv_heads: 8,
            intermediate: 28672,
            vocab: 32000,
            precision: Precision::Fp16,
        }
    }

    /// Llama-30B (used by the paper's Figure 6 strong-scaling case study;
    /// §2.2: "the KV cache of a single token in the Llama-30B occupies
    /// 1.52 MB").
    pub fn llama_30b() -> Self {
        Self {
            name: "Llama-30B".into(),
            layers: 60,
            hidden: 6656,
            heads: 52,
            kv_heads: 52,
            intermediate: 17920,
            vocab: 32000,
            precision: Precision::Fp16,
        }
    }

    /// A deliberately tiny model for fast unit/integration tests.
    pub fn tiny_test() -> Self {
        Self {
            name: "Tiny-test".into(),
            layers: 8,
            hidden: 256,
            heads: 8,
            kv_heads: 8,
            intermediate: 1024,
            vocab: 1000,
            precision: Precision::Fp16,
        }
    }

    /// Dimension of one attention head (`h / n`).
    #[inline]
    pub fn head_dim(&self) -> u64 {
        self.hidden / self.heads as u64
    }

    /// Parameter count of one transformer layer.
    ///
    /// Attention: `q,o` are `h×h`, `k,v` are `h×(g·head_dim)`; MLP (SwiGLU):
    /// three `h×i` matrices; plus two RMSNorm vectors of size `h`.
    pub fn params_per_layer(&self) -> u64 {
        let h = self.hidden;
        let kv_dim = self.kv_heads as u64 * self.head_dim();
        let attn = 2 * h * h + 2 * h * kv_dim;
        let mlp = 3 * h * self.intermediate;
        attn + mlp + 2 * h
    }

    /// Parameter count of the input embedding table (`vocab × h`).
    #[inline]
    pub fn embedding_params(&self) -> u64 {
        self.vocab * self.hidden
    }

    /// Parameter count of the LM head (`vocab × h`, untied) plus final norm.
    #[inline]
    pub fn lm_head_params(&self) -> u64 {
        self.vocab * self.hidden + self.hidden
    }

    /// Total parameter count of the model.
    pub fn total_params(&self) -> u64 {
        self.params_per_layer() * self.layers as u64
            + self.embedding_params()
            + self.lm_head_params()
    }

    /// Total bytes occupied by the weights at the model's precision.
    #[inline]
    pub fn weight_bytes(&self) -> u64 {
        self.total_params() * self.precision.bytes()
    }

    /// Bytes of KV cache one token occupies across **all** layers
    /// (`2 (K and V) · layers · g · head_dim · element_bytes`).
    pub fn kv_bytes_per_token(&self) -> u64 {
        2 * self.layers as u64
            * self.kv_heads as u64
            * self.head_dim()
            * self.precision.bytes()
    }

    /// Bytes of KV cache one token occupies in a **single** layer.
    pub fn kv_bytes_per_token_per_layer(&self) -> u64 {
        2 * self.kv_heads as u64 * self.head_dim() * self.precision.bytes()
    }

    /// Bytes of one token's activation vector (what pipeline stages exchange
    /// in point-to-point transfers: the hidden state).
    #[inline]
    pub fn activation_bytes_per_token(&self) -> u64 {
        self.hidden * self.precision.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn billions(p: u64) -> f64 {
        p as f64 / 1e9
    }

    #[test]
    fn llama2_13b_matches_published_size() {
        let m = ModelSpec::llama2_13b();
        let b = billions(m.total_params());
        assert!((12.5..13.5).contains(&b), "got {b} B params");
        // Table 2 lists 26 GB of weights.
        let gb = m.weight_bytes() as f64 / 1e9;
        assert!((25.0..27.0).contains(&gb), "got {gb} GB");
    }

    #[test]
    fn qwen32b_matches_published_size() {
        let m = ModelSpec::qwen2_5_32b();
        let b = billions(m.total_params());
        assert!((31.0..34.0).contains(&b), "got {b} B params");
        let gb = m.weight_bytes() as f64 / 1e9;
        assert!((62.0..68.0).contains(&gb), "got {gb} GB");
    }

    #[test]
    fn llama2_70b_matches_published_size() {
        let m = ModelSpec::llama2_70b();
        let b = billions(m.total_params());
        assert!((68.0..71.0).contains(&b), "got {b} B params");
        let gb = m.weight_bytes() as f64 / 1e9;
        assert!((136.0..142.0).contains(&gb), "got {gb} GB");
    }

    #[test]
    fn llama30b_kv_per_token_close_to_paper() {
        // §2.2: "The KV cache of a single token in the Llama-30B occupies
        // 1.52 MB". 2·60·6656·2 B = 1.597 MB; the paper likely rounded with
        // MB=2^20 (1.523 MiB). Accept the band.
        let m = ModelSpec::llama_30b();
        let mib = m.kv_bytes_per_token() as f64 / (1u64 << 20) as f64;
        assert!((1.4..1.7).contains(&mib), "got {mib} MiB");
    }

    #[test]
    fn gqa_shrinks_kv_cache() {
        let mha = ModelSpec::llama2_13b();
        let gqa = ModelSpec::qwen2_5_32b();
        // Qwen has more layers but 8/40 KV heads; per-layer KV must be 5x
        // smaller than an MHA model of the same hidden size.
        assert_eq!(
            mha.kv_bytes_per_token_per_layer(),
            5 * gqa.kv_bytes_per_token_per_layer()
        );
    }

    #[test]
    fn head_dim_is_exact() {
        for m in [
            ModelSpec::llama2_13b(),
            ModelSpec::qwen2_5_32b(),
            ModelSpec::llama2_70b(),
            ModelSpec::llama_30b(),
        ] {
            assert_eq!(m.head_dim() * m.heads as u64, m.hidden, "{}", m.name);
        }
    }

    #[test]
    fn activation_bytes() {
        let m = ModelSpec::llama2_13b();
        assert_eq!(m.activation_bytes_per_token(), 5120 * 2);
    }
}
