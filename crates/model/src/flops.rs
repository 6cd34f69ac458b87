//! Analytical FLOP / byte accounting for prefill, decode, and chunked work.
//!
//! A [`LayerWork`] describes what executing **one transformer layer** for a
//! given batch costs in floating point operations and in bytes moved through
//! HBM. The hardware crate turns a `LayerWork` into wall time with a
//! roofline model; the scheduler crates aggregate it over the layers of a
//! pipeline stage or a tensor-parallel shard.
//!
//! The formulas follow the standard decoder-transformer accounting:
//!
//! * linear (GEMM) FLOPs: `2 · tokens · params_per_layer`
//! * attention score+context FLOPs for `q` new tokens attending to `k`
//!   cached positions: `4 · q · k · h` (two matmuls of `2·q·k·h` each,
//!   causal masking already folded in for full prefill)
//! * weight bytes are streamed **once per batch** (this is what makes small
//!   decode batches memory-bound — the key asymmetry in §2.1 of the paper)
//! * decode reads the whole KV cache of every request each step; chunked
//!   prefill re-reads the already-cached prefix every chunk (the "repeated
//!   KV cache loading overhead" the paper charges against chunked prefill).

use crate::spec::ModelSpec;
use serde::{Deserialize, Serialize};

/// Cost of executing one transformer layer for some batch of work.
///
/// All quantities are totals for the layer invocation (not per token).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LayerWork {
    /// Floating-point operations.
    pub flops: f64,
    /// Weight bytes streamed from HBM (once per invocation).
    pub weight_bytes: f64,
    /// KV-cache bytes read (decode context, chunk prefix re-reads).
    pub kv_read_bytes: f64,
    /// KV-cache bytes written (every processed token writes its K/V).
    pub kv_write_bytes: f64,
    /// Activation bytes read+written (intermediate tensors).
    pub act_bytes: f64,
    /// Number of tokens processed in this invocation.
    pub tokens: u64,
}

impl LayerWork {
    /// Total bytes moved through HBM.
    #[inline]
    pub fn total_bytes(&self) -> f64 {
        self.weight_bytes + self.kv_read_bytes + self.kv_write_bytes + self.act_bytes
    }

    /// Arithmetic intensity (FLOPs per byte); `0` when no bytes move.
    #[inline]
    pub fn arithmetic_intensity(&self) -> f64 {
        let b = self.total_bytes();
        if b > 0.0 {
            self.flops / b
        } else {
            0.0
        }
    }

    /// Element-wise accumulation, used to fuse hybrid (prefill-chunk +
    /// decode) batches into a single kernel-invocation cost.
    pub fn merge(&self, other: &LayerWork) -> LayerWork {
        LayerWork {
            flops: self.flops + other.flops,
            // A fused hybrid batch streams the layer weights once, not twice.
            weight_bytes: self.weight_bytes.max(other.weight_bytes),
            kv_read_bytes: self.kv_read_bytes + other.kv_read_bytes,
            kv_write_bytes: self.kv_write_bytes + other.kv_write_bytes,
            act_bytes: self.act_bytes + other.act_bytes,
            tokens: self.tokens + other.tokens,
        }
    }
}

/// Number of activation read/write passes we charge per layer (rough
/// constant covering norms, residuals, activation functions and attention
/// I/O; only matters for very small models where GEMMs stop dominating).
const ACT_PASSES: f64 = 8.0;

impl ModelSpec {
    /// Work of one layer for a **prefill** batch of the given sequence
    /// lengths (each sequence is processed in full, causally).
    pub fn prefill_layer_work(&self, seq_lens: &[u32]) -> LayerWork {
        let mut tokens = 0u64;
        let mut attn_flops = 0.0;
        for &s in seq_lens {
            let s_f = s as f64;
            tokens += s_f as u64;
            attn_flops += self.prefill_attn_flops(s);
        }
        self.prefill_layer_work_from_parts(tokens, attn_flops)
    }

    /// Causal-attention FLOPs of prefilling one sequence of `seq_len`
    /// tokens: sum_k 4·k·h ≈ 2·s²·h. This is the only sequence-shape-
    /// dependent (and therefore accumulation-order-sensitive) term of
    /// [`Self::prefill_layer_work`]; callers that cache per-batch prefix
    /// sums accumulate these in admission order and rebuild the full
    /// `LayerWork` bit-identically via
    /// [`Self::prefill_layer_work_from_parts`].
    #[inline]
    pub fn prefill_attn_flops(&self, seq_len: u32) -> f64 {
        let h = self.hidden as f64;
        let s = seq_len as f64;
        2.0 * s * s * h
    }

    /// Rebuild a prefill [`LayerWork`] from its sufficient statistics: the
    /// token total and the accumulated attention FLOPs. Every other field
    /// is a pure function of the token total, so
    /// `prefill_layer_work(lens) == prefill_layer_work_from_parts(t, a)`
    /// bit-for-bit whenever `t`/`a` were accumulated in the same order.
    pub fn prefill_layer_work_from_parts(&self, tokens: u64, attn_flops: f64) -> LayerWork {
        let h = self.hidden as f64;
        let pb = self.precision.bytes() as f64;
        let params = self.params_per_layer() as f64;
        let kv_tok = self.kv_bytes_per_token_per_layer() as f64;
        let t = tokens as f64;
        LayerWork {
            flops: 2.0 * t * params + attn_flops,
            weight_bytes: params * pb,
            kv_read_bytes: t * kv_tok, // own K/V re-read by attention kernel
            kv_write_bytes: t * kv_tok,
            act_bytes: t * h * pb * ACT_PASSES,
            tokens,
        }
    }

    /// Work of one layer for a single **decode step** over a batch of
    /// `batch` requests whose context lengths sum to `total_ctx` tokens.
    pub fn decode_layer_work(&self, batch: usize, total_ctx: u64) -> LayerWork {
        let h = self.hidden as f64;
        let pb = self.precision.bytes() as f64;
        let params = self.params_per_layer() as f64;
        let kv_tok = self.kv_bytes_per_token_per_layer() as f64;
        let b = batch as f64;
        let ctx = total_ctx as f64;
        LayerWork {
            flops: 2.0 * b * params + 4.0 * ctx * h,
            weight_bytes: params * pb,
            kv_read_bytes: ctx * kv_tok,
            kv_write_bytes: b * kv_tok,
            act_bytes: b * h * pb * ACT_PASSES,
            tokens: batch as u64,
        }
    }

    /// Work of one layer for one **chunk** of a chunked prefill: `chunk`
    /// new tokens of a request that already has `prefix` tokens cached.
    ///
    /// The chunk attends to `prefix + chunk` positions and must re-read the
    /// prefix KV from HBM — the overhead the paper charges to chunked
    /// prefill (§2.3 point 3).
    pub fn chunk_layer_work(&self, chunk: u32, prefix: u32) -> LayerWork {
        let h = self.hidden as f64;
        let pb = self.precision.bytes() as f64;
        let params = self.params_per_layer() as f64;
        let kv_tok = self.kv_bytes_per_token_per_layer() as f64;
        let c = chunk as f64;
        let p = prefix as f64;
        LayerWork {
            // Each of the c tokens attends to p plus (on average) half of c.
            flops: 2.0 * c * params + 4.0 * c * (p + c / 2.0) * h,
            weight_bytes: params * pb,
            kv_read_bytes: (p + c) * kv_tok,
            kv_write_bytes: c * kv_tok,
            act_bytes: c * h * pb * ACT_PASSES,
            tokens: chunk as u64,
        }
    }

    /// Extra work of the LM head (`vocab × h` GEMM) for `tokens_out` tokens
    /// that produce logits. Charged to the **last** pipeline stage.
    pub fn lm_head_work(&self, tokens_out: u64) -> LayerWork {
        let h = self.hidden as f64;
        let v = self.vocab as f64;
        let pb = self.precision.bytes() as f64;
        let t = tokens_out as f64;
        LayerWork {
            flops: 2.0 * t * v * h,
            weight_bytes: v * h * pb,
            kv_read_bytes: 0.0,
            kv_write_bytes: 0.0,
            act_bytes: t * v * pb, // logits write
            tokens: tokens_out,
        }
    }

    /// Work of the input embedding lookup for `tokens` tokens. Charged to
    /// the **first** pipeline stage; it is a gather, so FLOP-free.
    pub fn embedding_work(&self, tokens: u64) -> LayerWork {
        let h = self.hidden as f64;
        let pb = self.precision.bytes() as f64;
        let t = tokens as f64;
        LayerWork {
            flops: 0.0,
            weight_bytes: 0.0, // only touched rows are read, charged as act
            kv_read_bytes: 0.0,
            kv_write_bytes: 0.0,
            act_bytes: 2.0 * t * h * pb,
            tokens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefill_is_compute_dominated_decode_is_memory_dominated() {
        // The §2.1 asymmetry must fall out of the accounting: a 2048-token
        // prefill has far higher arithmetic intensity than a 1-request
        // decode step.
        let m = ModelSpec::llama2_13b();
        let p = m.prefill_layer_work(&[2048]);
        let d = m.decode_layer_work(1, 512);
        assert!(p.arithmetic_intensity() > 100.0 * d.arithmetic_intensity());
        // A single decode request moves ~2 FLOPs per weight byte.
        assert!(d.arithmetic_intensity() < 4.0);
    }

    #[test]
    fn decode_intensity_grows_with_batch() {
        let m = ModelSpec::llama2_13b();
        let small = m.decode_layer_work(8, 8 * 300);
        let large = m.decode_layer_work(256, 256 * 300);
        assert!(large.arithmetic_intensity() > 8.0 * small.arithmetic_intensity());
    }

    #[test]
    fn prefill_flops_scale_superlinearly_in_seq_len() {
        let m = ModelSpec::llama2_13b();
        let a = m.prefill_layer_work(&[512]);
        let b = m.prefill_layer_work(&[1024]);
        assert!(b.flops > 2.0 * a.flops);
        assert!(b.flops < 4.0 * a.flops);
    }

    #[test]
    fn chunked_prefill_rereads_prefix_kv() {
        let m = ModelSpec::llama2_13b();
        let whole = m.prefill_layer_work(&[1024]);
        // Four 256-token chunks.
        let mut chunked = LayerWork::default();
        for i in 0..4 {
            let w = m.chunk_layer_work(256, 256 * i);
            chunked.flops += w.flops;
            chunked.kv_read_bytes += w.kv_read_bytes;
            chunked.kv_write_bytes += w.kv_write_bytes;
            chunked.weight_bytes += w.weight_bytes;
        }
        // Same tokens written...
        assert!((chunked.kv_write_bytes - whole.kv_write_bytes).abs() < 1.0);
        // ...but strictly more KV read and 4x the weight streaming.
        assert!(chunked.kv_read_bytes > whole.kv_read_bytes * 2.0);
        assert!((chunked.weight_bytes / whole.weight_bytes - 4.0).abs() < 1e-9);
        // FLOPs are (approximately) preserved by chunking.
        let rel = (chunked.flops - whole.flops).abs() / whole.flops;
        assert!(rel < 0.05, "rel flops error {rel}");
    }

    #[test]
    fn merge_streams_weights_once() {
        let m = ModelSpec::llama2_13b();
        let d = m.decode_layer_work(64, 64 * 200);
        let c = m.chunk_layer_work(256, 0);
        let hybrid = d.merge(&c);
        assert_eq!(hybrid.tokens, d.tokens + c.tokens);
        assert!((hybrid.weight_bytes - d.weight_bytes.max(c.weight_bytes)).abs() < 1.0);
        assert!((hybrid.flops - (d.flops + c.flops)).abs() / hybrid.flops < 1e-12);
    }

    #[test]
    fn lm_head_is_significant_for_large_vocab() {
        let qwen = ModelSpec::qwen2_5_32b();
        let head = qwen.lm_head_work(1);
        // 152k x 5120 x 2B ≈ 1.56 GB of weights per invocation.
        assert!(head.weight_bytes > 1.4e9);
    }

    #[test]
    fn empty_prefill_is_zero_work() {
        let m = ModelSpec::tiny_test();
        let w = m.prefill_layer_work(&[]);
        assert_eq!(w.tokens, 0);
        assert_eq!(w.flops, 0.0);
    }
}
