//! # TD-Pipe core
//!
//! The paper's primary contribution: the **temporally-disaggregated
//! pipeline-parallel** inference engine. The engine keeps the whole
//! pipeline in one phase — all-prefill or all-decode — for as long as
//! possible, eliminating the prefill/decode interference bubbles that
//! plague interleaved pipeline scheduling (paper Fig. 1), and switches
//! phases using three mechanisms:
//!
//! * [`greedy::GreedyPrefillPlanner`] — Algorithm 1: simulate future KV
//!   usage at `futurePoints` with predicted output lengths; keep prefilling
//!   until the simulated peak would overflow capacity (§3.3).
//! * [`steal::WorkStealer`] — sliding-window inter-batch work stealing that
//!   keeps the `num_gpus` in-flight decode batches balanced as requests
//!   complete randomly (§3.4).
//! * [`intensity::IntensityComparator`] — the spatial-temporal intensity
//!   comparison that picks the decode→prefill switch point (§3.5).
//!
//! [`engine::TdPipeEngine`] ties them together as a two-phase policy on
//! the shared run loop. Every mechanism has an ablation knob mirroring the
//! paper's §4.4 experiments (fixed KV-occupancy switch ratio, stealing
//! on/off, fixed request-finish switch ratio).
//!
//! The crate also hosts the scheduler-agnostic plumbing the baselines
//! reuse: the one run loop every scheduler is a policy on ([`driver`]),
//! analytical [`cost`] models per parallel layout, the [`request`] pool,
//! [`plan`]-level memory capacity math, and the [`parallel`] map that
//! sweeps and fleets run independent engine runs on.

#![forbid(unsafe_code)]

pub mod batch;
pub mod cohort;
pub mod config;
pub mod control;
pub mod cost;
pub mod driver;
pub mod engine;
mod estimate;
pub mod exec;
pub mod greedy;
pub mod intensity;
pub mod metrics;
pub mod parallel;
pub mod plan;
pub mod request;
pub mod steal;

pub use config::{D2pPolicy, EngineConfig, P2dPolicy, PreemptionMode, TdPipeConfig};
pub use engine::TdPipeEngine;
pub use plan::MemoryPlan;
pub use request::RequestPool;

#[cfg(test)]
mod proptests;
