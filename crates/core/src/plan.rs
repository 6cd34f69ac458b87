//! Memory capacity planning per parallel layout.
//!
//! Capacity is *the* resource the paper's scheduling decisions revolve
//! around. This module turns a `(model, node, layout)` triple into the KV
//! block pool the engine's [`tdpipe_kvcache::BlockAllocator`] manages:
//!
//! * **Pipeline parallel** — each stage stores weights for its own layers
//!   and KV for its own layers of every resident token. A token must be
//!   resident on *every* stage, so the binding capacity is the minimum
//!   across stages (the stage with the most layers fills first).
//! * **Tensor parallel** — weights and KV heads are sharded evenly, so all
//!   GPUs fill in lockstep; the per-GPU budget determines a pooled token
//!   capacity.
//!
//! A layout is *infeasible* when weights alone (plus reserve) overflow a
//! device — e.g. Llama2-70B on fewer than 2×A100 — mirroring the blank
//! entries in the paper's Figure 11.

use crate::config::BLOCK_SIZE;
use serde::{Deserialize, Serialize};
use tdpipe_hw::NodeSpec;
use tdpipe_model::{kv_budget_bytes, ModelSpec, PipelinePartition, TensorShard};

/// A planned KV pool for one configuration, in blocks of
/// [`BLOCK_SIZE`] tokens.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryPlan {
    /// Number of KV blocks the allocator manages (binding scope).
    pub kv_blocks: u64,
}

impl MemoryPlan {
    /// Token capacity of the pool.
    #[inline]
    pub fn token_capacity(&self) -> u64 {
        self.kv_blocks * BLOCK_SIZE as u64
    }

    /// Plan for layer-wise pipeline parallelism over all of the node's
    /// GPUs. Returns `None` when the node has more GPUs than the model has
    /// layers, or when some stage's weights (plus reserve) overflow its GPU.
    pub fn pipeline(model: &ModelSpec, node: &NodeSpec, reserve_bytes: u64) -> Option<Self> {
        if node.num_gpus > model.layers {
            return None;
        }
        let partition = PipelinePartition::balanced(model, node.num_gpus);
        Self::pipeline_with(model, node, &partition, reserve_bytes)
    }

    /// Like [`Self::pipeline`] but for an explicit partition (e.g. an
    /// LM-head-aware one).
    pub fn pipeline_with(
        model: &ModelSpec,
        node: &NodeSpec,
        partition: &PipelinePartition,
        reserve_bytes: u64,
    ) -> Option<Self> {
        let mut binding_blocks = u64::MAX;
        for s in 0..partition.num_stages() {
            let budget = kv_budget_bytes(
                node.gpu.mem_bytes,
                partition.stage_weight_bytes(model, s),
                reserve_bytes,
            );
            let per_block = partition.stage_kv_bytes_per_token(model, s) * BLOCK_SIZE as u64;
            let blocks = budget / per_block;
            if blocks == 0 {
                return None;
            }
            binding_blocks = binding_blocks.min(blocks);
        }
        Some(MemoryPlan {
            kv_blocks: binding_blocks,
        })
    }

    /// Plan for tensor parallelism over all of the node's GPUs. Returns
    /// `None` when the weight shard (plus reserve) overflows a GPU.
    pub fn tensor(model: &ModelSpec, node: &NodeSpec, reserve_bytes: u64) -> Option<Self> {
        let shard = TensorShard::new(node.num_gpus);
        let budget = kv_budget_bytes(
            node.gpu.mem_bytes,
            shard.weight_bytes_per_gpu(model),
            reserve_bytes,
        );
        let per_block = shard.kv_bytes_per_token_per_gpu(model) * BLOCK_SIZE as u64;
        let blocks = budget / per_block;
        if blocks == 0 {
            return None;
        }
        Some(MemoryPlan { kv_blocks: blocks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn infeasible_configs_return_none() {
        // Llama2-70B (140 GB) cannot fit one L20 (48 GB) in any layout...
        let m = ModelSpec::llama2_70b();
        assert!(MemoryPlan::pipeline(&m, &NodeSpec::l20(1), 2 * GIB).is_none());
        assert!(MemoryPlan::tensor(&m, &NodeSpec::l20(1), 2 * GIB).is_none());
        // ...nor a single A100 (80 GB).
        assert!(MemoryPlan::tensor(&m, &NodeSpec::a100(1), 2 * GIB).is_none());
        // But 4×A100 works in both layouts.
        assert!(MemoryPlan::pipeline(&m, &NodeSpec::a100(4), 2 * GIB).is_some());
        assert!(MemoryPlan::tensor(&m, &NodeSpec::a100(4), 2 * GIB).is_some());
    }

    #[test]
    fn more_gpus_mean_superlinear_token_capacity() {
        // Doubling GPUs more than doubles KV capacity (weights amortise) —
        // the driver of the paper's super-linear TD-Pipe scaling (§4.2).
        let m = ModelSpec::qwen2_5_32b();
        let c2 = MemoryPlan::pipeline(&m, &NodeSpec::l20(2), 2 * GIB)
            .unwrap()
            .token_capacity();
        let c4 = MemoryPlan::pipeline(&m, &NodeSpec::l20(4), 2 * GIB)
            .unwrap()
            .token_capacity();
        assert!(c4 > 2 * c2, "c2={c2} c4={c4}");
    }

    #[test]
    fn pp_and_tp_capacities_are_close_for_even_splits() {
        let m = ModelSpec::llama2_13b(); // 40 layers / 4 stages even
        let node = NodeSpec::a100(4);
        let pp = MemoryPlan::pipeline(&m, &node, 2 * GIB).unwrap();
        let tp = MemoryPlan::tensor(&m, &node, 2 * GIB).unwrap();
        let ratio = pp.token_capacity() as f64 / tp.token_capacity() as f64;
        assert!((0.9..1.1).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn thirteen_b_on_one_l20_has_real_capacity() {
        let m = ModelSpec::llama2_13b();
        let plan = MemoryPlan::pipeline(&m, &NodeSpec::l20(1), 2 * GIB).unwrap();
        // ~19 GB KV budget at 0.82 MB/token ≈ 24k tokens.
        let cap = plan.token_capacity();
        assert!((15_000..35_000).contains(&cap), "cap={cap}");
    }
}
