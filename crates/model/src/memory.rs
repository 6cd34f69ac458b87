//! KV-cache memory budget: how many bytes of a GPU are left for paged KV.
//!
//! The KV-cache manager (crate `tdpipe-kvcache`) works in *blocks* of
//! `block_size` tokens, mirroring vLLM's paged attention; turning the
//! budget into blocks per parallel layout is `tdpipe_core::plan::MemoryPlan`'s
//! job.

/// Default paged-attention block size in tokens (vLLM default).
pub const DEFAULT_BLOCK_SIZE: u32 = 16;

/// How much of a GPU's memory is left for KV cache after weights and an
/// activation/workspace reserve, mirroring vLLM's `gpu_memory_utilization`
/// accounting.
///
/// Returns 0 (rather than panicking) when the weights alone overflow the
/// device — callers treat that as "configuration infeasible".
pub fn kv_budget_bytes(gpu_mem_bytes: u64, weight_bytes: u64, reserve_bytes: u64) -> u64 {
    gpu_mem_bytes
        .saturating_sub(weight_bytes)
        .saturating_sub(reserve_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelSpec;

    const GIB: u64 = 1 << 30;

    #[test]
    fn infeasible_budget_is_zero_not_panic() {
        let m = ModelSpec::llama2_70b();
        // 70B (140 GB) on a 48 GB L20: weights alone overflow.
        assert_eq!(kv_budget_bytes(48 * GIB, m.weight_bytes(), GIB), 0);
    }
}
