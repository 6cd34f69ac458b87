//! Model partitioning: layer-wise (pipeline parallel) and intra-layer
//! sharding (tensor parallel).

use crate::spec::ModelSpec;
use serde::{Deserialize, Serialize};

/// The slice of a model assigned to one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageAssignment {
    /// Stage index (0 = first).
    pub stage: u32,
    /// First transformer layer owned by this stage (inclusive).
    pub layer_start: u32,
    /// Number of transformer layers owned by this stage.
    pub layer_count: u32,
    /// Whether this stage runs the input embedding (stage 0).
    pub has_embedding: bool,
    /// Whether this stage runs the LM head (last stage).
    pub has_lm_head: bool,
}

/// A balanced layer-wise partition of a model over `n` pipeline stages.
///
/// Layers are distributed as evenly as possible; when `layers % n != 0`,
/// the *earlier* stages receive the extra layer (the last stage also carries
/// the LM head, so front-loading keeps stage times closer for large-vocab
/// models).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelinePartition {
    stages: Vec<StageAssignment>,
}

impl PipelinePartition {
    /// Split `model` into `num_stages` balanced stages.
    ///
    /// # Panics
    /// Panics if `num_stages` is zero or exceeds the layer count.
    pub fn balanced(model: &ModelSpec, num_stages: u32) -> Self {
        assert!(num_stages > 0, "need at least one stage");
        assert!(
            num_stages <= model.layers,
            "cannot split {} layers over {} stages",
            model.layers,
            num_stages
        );
        let base = model.layers / num_stages;
        let extra = model.layers % num_stages;
        let mut stages = Vec::with_capacity(num_stages as usize);
        let mut next_layer = 0;
        for s in 0..num_stages {
            let count = base + u32::from(s < extra);
            stages.push(StageAssignment {
                stage: s,
                layer_start: next_layer,
                layer_count: count,
                has_embedding: s == 0,
                has_lm_head: s == num_stages - 1,
            });
            next_layer += count;
        }
        debug_assert_eq!(next_layer, model.layers);
        PipelinePartition { stages }
    }

    /// Build a partition from explicit per-stage layer counts (for
    /// balancers that offset boundary-stage extras like the LM head).
    ///
    /// # Panics
    /// Panics if the counts are empty, contain a zero, or do not sum to
    /// the model's layer count.
    pub fn from_layer_counts(model: &ModelSpec, counts: &[u32]) -> Self {
        assert!(!counts.is_empty(), "need at least one stage");
        assert!(counts.iter().all(|&c| c > 0), "every stage needs a layer");
        assert_eq!(
            counts.iter().sum::<u32>(),
            model.layers,
            "layer counts must cover the model exactly"
        );
        let mut stages = Vec::with_capacity(counts.len());
        let mut next_layer = 0;
        for (s, &count) in counts.iter().enumerate() {
            stages.push(StageAssignment {
                stage: s as u32,
                layer_start: next_layer,
                layer_count: count,
                has_embedding: s == 0,
                has_lm_head: s + 1 == counts.len(),
            });
            next_layer += count;
        }
        PipelinePartition { stages }
    }

    /// Number of pipeline stages.
    #[inline]
    pub fn num_stages(&self) -> u32 {
        self.stages.len() as u32
    }

    /// Assignments in stage order.
    #[inline]
    pub fn stages(&self) -> &[StageAssignment] {
        &self.stages
    }

    /// Assignment of one stage.
    #[inline]
    pub fn stage(&self, s: u32) -> &StageAssignment {
        &self.stages[s as usize]
    }

    /// Weight bytes resident on a given stage (its layers plus, where
    /// applicable, embedding table / LM head).
    pub fn stage_weight_bytes(&self, model: &ModelSpec, s: u32) -> u64 {
        let a = self.stage(s);
        let mut params = model.params_per_layer() * a.layer_count as u64;
        if a.has_embedding {
            params += model.embedding_params();
        }
        if a.has_lm_head {
            params += model.lm_head_params();
        }
        params * model.precision.bytes()
    }

    /// KV-cache bytes one token occupies **on a given stage** (only the
    /// stage's own layers hold KV).
    pub fn stage_kv_bytes_per_token(&self, model: &ModelSpec, s: u32) -> u64 {
        model.kv_bytes_per_token_per_layer() * self.stage(s).layer_count as u64
    }
}

/// Intra-layer (tensor-parallel) sharding of a model over `degree` GPUs.
///
/// Following Megatron-style column/row splits, each GPU holds `1/degree` of
/// every weight matrix and `1/degree` of every token's KV cache, and each
/// transformer layer requires **two all-reduce operations** over the
/// activations (one after attention, one after the MLP) — the communication
/// pattern the paper's Figure 6 measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TensorShard {
    /// Number of GPUs participating in tensor parallelism.
    pub degree: u32,
}

impl TensorShard {
    /// Create a shard descriptor.
    ///
    /// # Panics
    /// Panics if `degree == 0`.
    pub fn new(degree: u32) -> Self {
        assert!(degree > 0, "tensor parallel degree must be positive");
        TensorShard { degree }
    }

    /// Weight bytes resident per GPU.
    pub fn weight_bytes_per_gpu(&self, model: &ModelSpec) -> u64 {
        model.weight_bytes().div_ceil(self.degree as u64)
    }

    /// KV bytes per token per GPU (heads are split across the shard).
    pub fn kv_bytes_per_token_per_gpu(&self, model: &ModelSpec) -> u64 {
        model.kv_bytes_per_token().div_ceil(self.degree as u64)
    }

    /// Number of all-reduce operations one forward pass of `layers` layers
    /// performs (2 per layer).
    #[inline]
    pub fn allreduce_ops(&self, layers: u32) -> u32 {
        2 * layers
    }

    /// Bytes all-reduced per operation for a batch of `tokens` tokens: the
    /// full hidden activation.
    #[inline]
    pub fn allreduce_bytes(&self, model: &ModelSpec, tokens: u64) -> u64 {
        tokens * model.activation_bytes_per_token()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_partition_covers_all_layers_exactly_once() {
        let m = ModelSpec::llama2_70b();
        for n in [1u32, 2, 3, 4, 5, 7, 8] {
            let p = PipelinePartition::balanced(&m, n);
            let total: u32 = p.stages().iter().map(|s| s.layer_count).sum();
            assert_eq!(total, m.layers);
            // Contiguous, ordered coverage.
            let mut next = 0;
            for s in p.stages() {
                assert_eq!(s.layer_start, next);
                next += s.layer_count;
            }
            // Balanced to within one layer.
            let min = p.stages().iter().map(|s| s.layer_count).min().unwrap();
            let max = p.stages().iter().map(|s| s.layer_count).max().unwrap();
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn embedding_and_head_on_boundary_stages() {
        let m = ModelSpec::llama2_13b();
        let p = PipelinePartition::balanced(&m, 4);
        assert!(p.stage(0).has_embedding);
        assert!(!p.stage(0).has_lm_head);
        assert!(p.stage(3).has_lm_head);
        assert!(!p.stage(3).has_embedding);
        assert!(!p.stage(1).has_embedding && !p.stage(1).has_lm_head);
    }

    #[test]
    fn single_stage_owns_everything() {
        let m = ModelSpec::tiny_test();
        let p = PipelinePartition::balanced(&m, 1);
        let s = p.stage(0);
        assert!(s.has_embedding && s.has_lm_head);
        assert_eq!(s.layer_count, m.layers);
        assert_eq!(p.stage_weight_bytes(&m, 0), m.weight_bytes());
    }

    #[test]
    fn stage_weights_sum_to_model_weights() {
        let m = ModelSpec::qwen2_5_32b();
        let p = PipelinePartition::balanced(&m, 4);
        let sum: u64 = (0..4).map(|s| p.stage_weight_bytes(&m, s)).sum();
        assert_eq!(sum, m.weight_bytes());
    }

    #[test]
    fn stage_kv_sums_to_model_kv() {
        let m = ModelSpec::llama2_70b();
        let p = PipelinePartition::balanced(&m, 4);
        let sum: u64 = (0..4).map(|s| p.stage_kv_bytes_per_token(&m, s)).sum();
        assert_eq!(sum, m.kv_bytes_per_token());
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn too_many_stages_panics() {
        let m = ModelSpec::tiny_test();
        let _ = PipelinePartition::balanced(&m, m.layers + 1);
    }

    #[test]
    fn tensor_shard_divides_memory() {
        let m = ModelSpec::llama2_70b();
        let t = TensorShard::new(4);
        assert!(t.weight_bytes_per_gpu(&m) >= m.weight_bytes() / 4);
        assert!(t.weight_bytes_per_gpu(&m) <= m.weight_bytes() / 4 + 4);
        assert_eq!(t.allreduce_ops(m.layers), 160);
        assert_eq!(t.allreduce_bytes(&m, 100), 100 * 8192 * 2);
    }
}
