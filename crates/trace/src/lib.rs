//! # tdpipe-trace — the scheduling flight recorder
//!
//! The TD-Pipe engine makes its three headline decisions invisibly: the
//! §3.3 greedy-prefill stop, the §3.4 steal/withhold rebalance and the
//! §3.5 spatial-vs-temporal phase switch all happen deep inside the run
//! loop, and a run normally emits only aggregate numbers. When a figure
//! replication drifts, aggregate diffs say *that* something changed but
//! never *which decision* changed. This crate is the observability layer
//! every serving stack eventually grows (vLLM's per-step scheduler stats,
//! Orca's per-iteration admission logs):
//!
//! * [`FlightRecorder`] — a virtual-time-stamped, structured, append-only
//!   event journal ([`TraceEvent`]). Recording is gated at construction:
//!   a disabled recorder is a no-op whose `record` calls compile down to
//!   one branch, so default-configured runs stay bit-identical.
//! * [`chrome_trace`] — export a run (device [`Timeline`] + journal) as
//!   `chrome://tracing` / Perfetto JSON: one track per device, one
//!   "engine" track of instant decision events.
//! * [`decision_table`] — a per-phase plain-text table: why each prefill
//!   phase stopped, and the intensity pair at each decode→prefill switch
//!   (the numbers to read against paper Figs. 9/10/12).
//! * [`validate_chrome_trace`] — the schema check CI runs against an
//!   exported trace (valid JSON, monotone timestamps per track).
//!
//! Determinism contract: the journal holds only virtual times produced by
//! the deterministic engine — never wall clocks — and every export
//! iterates insertion- or index-ordered containers, so two identical runs
//! serialize byte-identically (pinned by `tests/trace_export.rs`).
//!
//! [`Timeline`]: tdpipe_sim::Timeline

#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod table;

#[cfg(test)]
extern crate self as tdpipe_trace;
#[cfg(test)]
#[path = "../tests/support/stage_reference.rs"]
mod stage_reference;

pub use chrome::{chrome_trace, validate_chrome_trace, ChromeTraceCheck};
pub use event::{
    AdmitReason, EvictMode, FlightRecorder, PrefillStopReason, TimedEvent, TraceEvent,
};
pub use table::decision_table;
