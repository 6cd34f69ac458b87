//! Paged KV-cache management (the vLLM-style substrate TD-Pipe builds on).
//!
//! LLM decode throughput is capacity-limited: every in-flight request holds
//! `input + generated-so-far` tokens of KV cache, and the scheduler's whole
//! job (Algorithm 1, Fig. 12, the recompute policy of §4.1) revolves around
//! the occupancy of a fixed pool of fixed-size *blocks*. This crate
//! implements that pool:
//!
//! * [`Blocks`] — a count of blocks, as a type: tokens stay plain
//!   integers, so adding or comparing tokens with blocks does not
//!   compile, and [`Blocks::for_tokens`] and [`Blocks::tokens`] are the
//!   only conversions. Every block count in this crate's API is one.
//! * [`BlockAllocator`] — allocate a request's prompt, extend it one token
//!   per decode step, free it on completion or eviction. Strict
//!   conservation invariants, O(1) operations.
//! * [`OccupancyTrace`] — a time series of occupancy samples, the exact
//!   data behind the paper's Figure 12, or only its peak when not
//!   recording.
//! * [`SessionKv`] — session-affine KV retention across closed-loop
//!   conversation turns: which finished turn's blocks are held for which
//!   resumed turn, under what budget, and the allocator calls that retain,
//!   drop and claim them. Its tests model-check it, with a real
//!   allocator, over every interleaving of a bounded sweep of sessions.
//! * [`IdWindow`] — an id-indexed table that holds only a window of ids,
//!   the in-flight ones: the allocator's residency table and the engines'
//!   per-request run state.
//!
//! The allocator is *scope-agnostic*: one instance manages the binding
//! stage of a pipeline (the stage whose blocks run out first), or a TP
//! shard's pooled view — the caller decides what a block means physically
//! (`tdpipe_core::plan::MemoryPlan` sizes the pool per layout).

#![forbid(unsafe_code)]

pub mod allocator;
pub mod blocks;
pub mod session;
pub mod usage;
pub mod window;

pub use allocator::{used_fraction, AllocStats, BlockAllocator, KvError};
pub use blocks::Blocks;
pub use session::{RetainStats, SessionEvent, SessionKv};
pub use usage::{OccupancySample, OccupancyTrace, Phase};
pub use window::{IdWindow, Slot};

#[cfg(test)]
mod proptests;
