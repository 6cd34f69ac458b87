//! The hierarchy-controller runtime (paper §3.2), with real threads.
//!
//! TD-Pipe's system structure splits the engine into a **control plane**
//! (one centralized engine that batches requests and launches work) and an
//! **execution plane** (one SPMD worker per pipeline stage that executes
//! its layers and forwards activations to the next stage directly, without
//! bouncing through the engine). The point of the split is that
//! stage-to-stage transfers become asynchronous: a worker hands its output
//! downstream and immediately starts its next job.
//!
//! This crate realises that architecture with OS threads and
//! `std::sync::mpsc` channels:
//!
//! * [`Cluster`] — spawns `num_stages` [`worker`] threads wired in a chain;
//!   the engine thread (the caller) launches [`JobSpec`]s and receives
//!   [`Completion`]s.
//! * Each worker owns a [`CommContext`] — its rank, world size, and
//!   channel endpoints — mirroring the paper's "global communication
//!   context" that lets an SPMD worker know what to compute and whom to
//!   talk to.
//! * Execution time is *virtual*: workers advance per-worker clocks using
//!   the same cost numbers the simulator uses, so a threaded run is
//!   bit-for-bit equivalent to [`tdpipe_sim::PipelineSim`] — the
//!   equivalence is asserted by integration tests, proving the
//!   deterministic simulator faithfully models the concurrent design.
//! * [`tdpipe_sim::TransferMode::Async`] and blocking/rendezvous styles
//!   are both implemented, so the benefit of the asynchronous
//!   hierarchy-controller over conventional blocking sends is
//!   demonstrable with real threads.
//!
//! # Fault model
//!
//! Failure is an expected event, not a fatal one. Workers are
//! *supervised*: each runs under `catch_unwind` and reports its exit on
//! a dedicated supervision channel, every channel operation maps to a
//! structured [`RuntimeError`] instead of a panic, and
//! [`Cluster::shutdown`] drains with a bounded deadline so the engine is
//! never deadlocked by a dead stage. A [`FaultPlan`] injects panics,
//! lost messages, slow wires, corrupt acks, and stalls deterministically
//! so every failure path is testable; [`FaultPlan::none`] is guaranteed
//! to leave behaviour bit-identical to the simulator.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod comm;
pub mod error;
pub mod executor;
pub mod fault;
pub mod worker;

pub use cluster::{Cluster, ClusterOptions};
pub use comm::{CommContext, Completion, JobSpec};
pub use error::RuntimeError;
pub use executor::ThreadedExecutor;
pub use fault::{Fault, FaultPlan};
pub use worker::{WorkerLog, WorkerSegment, WorkerSummary};
