//! Paged KV-cache management (the vLLM-style substrate TD-Pipe builds on).
//!
//! LLM decode throughput is capacity-limited: every in-flight request holds
//! `input + generated-so-far` tokens of KV cache, and the scheduler's whole
//! job (Algorithm 1, Fig. 12, the recompute policy of §4.1) revolves around
//! the occupancy of a fixed pool of fixed-size *blocks*. This crate
//! implements that pool:
//!
//! * [`BlockAllocator`] — allocate a request's prompt, extend it one token
//!   per decode step, free it on completion or eviction. Strict
//!   conservation invariants, O(1) operations.
//! * [`OccupancyTrace`] — a time series of occupancy samples, the exact
//!   data behind the paper's Figure 12.
//! * [`SessionRetainer`] — bookkeeping for session-affine KV retention
//!   across closed-loop conversation turns (which finished turn's blocks
//!   are being held for which resumed turn, under what budget).
//!
//! The allocator is *scope-agnostic*: one instance manages the binding
//! stage of a pipeline (the stage whose blocks run out first), or a TP
//! shard's pooled view — the caller decides what a block means physically
//! (`tdpipe_core::plan::MemoryPlan` sizes the pool per layout).

#![forbid(unsafe_code)]

pub mod allocator;
pub mod session;
pub mod usage;

pub use allocator::{AllocStats, BlockAllocator, KvError};
pub use session::{RetainStats, RetainedKv, SessionRetainer};
pub use usage::{OccupancySample, OccupancyTrace, Phase};

#[cfg(test)]
mod proptests;
