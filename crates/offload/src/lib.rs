//! KV-offloading inference and the PCIe root-complex contention model.
//!
//! The paper's §2.2.2 examines the *other* way to stretch GPU memory:
//! keep weights on the GPU but spill the KV cache to host memory, paging
//! it back over PCIe every decode step (FlexGen/DeepSpeed-Inference
//! style). The verdict — and the reason the paper turns to parallelism —
//! is that the approach collapses on multi-GPU nodes: all GPUs share one
//! CPU root complex, so the host-link bandwidth divides among them while
//! every instance needs it on every step.
//!
//! This crate builds that alternative so the claim can be *measured*
//! instead of asserted:
//!
//! * [`HostLink`] — the shared CPU↔GPU link: per-GPU PCIe bandwidth and
//!   the root-complex aggregate that caps the sum.
//! * [`OffloadCost`] — decode/prefill step pricing when KV streams from
//!   host memory, with compute/transfer overlap (the double-buffering
//!   schedule offloading systems rely on).
//! * [`OffloadEngine`] — a single-GPU continuous-batching engine whose KV
//!   pool lives in host memory (huge capacity, slow access). A run is a
//!   policy on the loop every scheduler shares (`tdpipe_core::driver`)
//!   over one baseline lane (`tdpipe_baselines::common::Lane`).
//! * [`NodeOffloadRun`] — N independent replicas on one node sharing the
//!   root complex: per-replica bandwidth shrinks as `aggregate / N`,
//!   reproducing the §2.2.2 contention collapse (see the
//!   `fig5_offload_contention` bench binary).

#![forbid(unsafe_code)]

pub mod contention;
pub mod cost;
pub mod engine;

pub use contention::{HostLink, NodeOffloadRun};
pub use cost::OffloadCost;
pub use engine::OffloadEngine;
