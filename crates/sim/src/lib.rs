//! Deterministic discrete-event simulation substrate.
//!
//! The paper measures wall-clock behaviour of schedulers driving real GPUs;
//! this crate supplies the virtual equivalent. Two pieces:
//!
//! * [`PipelineSim`] — the heart of the reproduction: a FIFO multi-stage
//!   pipeline with the classic recurrence
//!   `start(j, s) = max(arrive(j, s), free(s))`, asynchronous or blocking
//!   inter-stage transfers, and exact bubble accounting. Every scheduler
//!   (TD-Pipe and the four baselines) expresses its decisions as `launch`
//!   calls and reads back completion times.
//! * [`Timeline`] — a per-device activity log from which GPU utilization
//!   (paper Fig. 2), bubble ratios, and Gantt exports (Fig. 1) fall out.
//!
//! Everything is `f64`-seconds based and fully deterministic: no wall
//! clocks, no threads, no randomness.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod gantt;
pub mod pipeline;
pub mod report;
pub mod timeline;

pub use analysis::{bubble_breakdown, idle_gaps, BubbleBreakdown, IdleGap};
pub use gantt::{render_gantt, GanttOptions};
pub use pipeline::{JobTiming, PipelineSim, TransferMode};
pub use report::{LatencySummary, RunReport};
pub use timeline::{Segment, SegmentKind, Timeline, WindowedBusy};

#[cfg(test)]
mod proptests;
