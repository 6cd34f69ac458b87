//! Transformer model architecture descriptions and analytical cost math.
//!
//! This crate is the bottom-most substrate of the TD-Pipe reproduction. The
//! schedulers in the paper never look at weight *values* — only at shapes:
//! how many layers a model has (pipeline partitioning), how many bytes its
//! weights occupy (memory planning), how many FLOPs and bytes a prefill or a
//! decode step moves (roofline execution-time model), and how many bytes of
//! KV cache one token costs (capacity planning, Algorithm 1 of the paper).
//!
//! Everything here is pure, deterministic arithmetic with no I/O, so the
//! crates above it (hardware model, simulator, schedulers) can call it from
//! hot loops without allocation.
//!
//! # Quick example
//!
//! ```
//! use tdpipe_model::ModelSpec;
//!
//! let m = ModelSpec::llama2_13b();
//! // Llama2-13B weights are ~26 GB in FP16 (paper Table 2).
//! let gib = m.weight_bytes() as f64 / (1u64 << 30) as f64;
//! assert!((24.0..27.0).contains(&gib));
//! ```

#![forbid(unsafe_code)]

pub mod flops;
pub mod memory;
pub mod partition;
pub mod precision;
pub mod spec;

pub use flops::LayerWork;
pub use memory::{kv_budget_bytes, DEFAULT_BLOCK_SIZE};
pub use partition::{PipelinePartition, StageAssignment, TensorShard};
pub use precision::Precision;
pub use spec::ModelSpec;

#[cfg(test)]
mod proptests;
