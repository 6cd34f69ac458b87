//! The execution-plane abstraction the engine schedules against.
//!
//! The TD-Pipe engine only needs four things from an execution plane:
//! launch a staged job, learn (in launch order) when jobs finish, know how
//! many are outstanding, and drain at the end. The deterministic simulator
//! satisfies this trivially; so does the threaded hierarchy-controller of
//! `tdpipe-runtime` — which is how the *same engine code* is proven to run
//! on real concurrency (see that crate's `TdPipeEngine` integration test).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::unimplemented, clippy::allow_attributes_without_reason)]
#![deny(unfulfilled_lint_expectations)]

use tdpipe_sim::{PipelineSim, SegmentKind, Timeline, TransferMode};

/// Failure class of an execution plane (mirrors the runtime's
/// `RuntimeError` without depending on the runtime crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecErrorKind {
    /// A worker in the execution plane panicked.
    WorkerPanicked,
    /// A channel/endpoint closed under a live pipeline.
    Disconnected,
    /// A bounded wait (completion or shutdown drain) expired.
    Timeout,
    /// The plane violated its protocol (bad ack, out-of-order
    /// completion — the shadow of a lost stage message).
    ProtocolViolation,
}

/// A structured execution-plane failure as the engine sees it.
///
/// The deterministic simulator never produces one; the threaded
/// hierarchy-controller maps every `RuntimeError` into this type so the
/// scheduling loop observes a clean error instead of a cascading panic.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecError {
    /// Failure class.
    pub kind: ExecErrorKind,
    /// Human-readable root cause.
    pub message: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "execution plane failed: {}", self.message)
    }
}

impl std::error::Error for ExecError {}

/// Execution-plane statistics exported into the metrics plane.
///
/// Collected by the engine just before `try_finish` (which consumes the
/// executor), so a plane accumulates them live instead of at shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaneStats {
    /// High-water mark of the completion-queue depth: the most jobs that
    /// were ever launched-but-uncollected at once.
    pub queue_depth_high_water: usize,
}

/// An execution plane: something that runs staged pipeline jobs.
///
/// Completions are reported strictly in launch order (guaranteed by FIFO
/// stages in both implementations).
pub trait PipelineExecutor {
    /// Launch a job (non-blocking). A plane that can fail asynchronously
    /// reports the failure from the completion path, not from here.
    fn launch(&mut self, ready: f64, exec: &[f64], xfer: &[f64], kind: SegmentKind, tag: u64);

    /// Block until the oldest outstanding job completes; returns
    /// `(tag, finish_time)`.
    ///
    /// # Panics
    /// Panics if nothing is outstanding, or on an execution-plane
    /// failure (prefer [`Self::try_next_completion`]).
    fn next_completion(&mut self) -> (u64, f64);

    /// Fallible [`Self::next_completion`]: a supervised plane returns a
    /// structured [`ExecError`] within a bounded wait instead of
    /// panicking or hanging. Infallible planes use this default.
    ///
    /// # Panics
    /// Panics if nothing is outstanding.
    fn try_next_completion(&mut self) -> Result<(u64, f64), ExecError> {
        Ok(self.next_completion())
    }

    /// Number of launched-but-uncompleted jobs.
    fn outstanding(&self) -> usize;

    /// Finish collecting: wait out all outstanding jobs and return the
    /// final virtual time plus whatever timeline was recorded.
    ///
    /// # Panics
    /// Panics on an execution-plane failure (prefer
    /// [`Self::try_finish`]).
    fn finish(self: Box<Self>) -> (f64, Timeline);

    /// Fallible [`Self::finish`] with the same bounded-wait guarantees
    /// as [`Self::try_next_completion`].
    fn try_finish(self: Box<Self>) -> Result<(f64, Timeline), ExecError> {
        Ok(self.finish())
    }

    /// Plane-side statistics for the metrics plane. The engine reads them
    /// once, right before finishing; planes that track nothing use this
    /// zeroed default.
    fn plane_stats(&self) -> PlaneStats {
        PlaneStats::default()
    }
}

/// The deterministic simulator as an execution plane.
pub struct SimExecutor {
    sim: PipelineSim,
    completions: std::collections::VecDeque<(u64, f64)>,
    depth_hw: usize,
}

impl SimExecutor {
    /// A simulator-backed executor.
    pub fn new(num_stages: u32, mode: TransferMode, record_timeline: bool) -> Self {
        SimExecutor {
            sim: PipelineSim::new(num_stages, mode, record_timeline),
            completions: std::collections::VecDeque::new(),
            depth_hw: 0,
        }
    }
}

impl PipelineExecutor for SimExecutor {
    fn launch(&mut self, ready: f64, exec: &[f64], xfer: &[f64], kind: SegmentKind, tag: u64) {
        let t = self.sim.launch(ready, exec, xfer, kind, tag);
        self.completions.push_back((tag, t.finish));
        self.depth_hw = self.depth_hw.max(self.completions.len());
    }

    #[expect(clippy::expect_used, reason = "caller-side sequencing bug (completion awaited with \
        nothing launched), documented under `# Panics` on the trait method; the simulator itself \
        cannot lose a job")]
    fn next_completion(&mut self) -> (u64, f64) {
        self.completions.pop_front().expect("no outstanding job to complete")
    }

    fn outstanding(&self) -> usize {
        self.completions.len()
    }

    fn finish(self: Box<Self>) -> (f64, Timeline) {
        let drained = self.sim.drained_at();
        (drained, self.sim.into_timeline())
    }

    fn plane_stats(&self) -> PlaneStats {
        PlaneStats {
            queue_depth_high_water: self.depth_hw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_executor_reports_in_launch_order() {
        let mut ex = SimExecutor::new(2, TransferMode::Async, false);
        ex.launch(0.0, &[1.0, 1.0], &[0.0], SegmentKind::Decode, 7);
        ex.launch(0.0, &[0.1, 0.1], &[0.0], SegmentKind::Decode, 8);
        assert_eq!(ex.outstanding(), 2);
        let (t0, f0) = ex.next_completion();
        let (t1, f1) = ex.next_completion();
        assert_eq!((t0, t1), (7, 8));
        assert!(f1 >= f0);
        let (drained, _) = Box::new(ex).finish();
        assert!(drained >= f1);
    }

    #[test]
    fn sim_executor_try_paths_are_infallible() {
        let mut ex = SimExecutor::new(2, TransferMode::Async, false);
        ex.launch(0.0, &[1.0, 1.0], &[0.0], SegmentKind::Decode, 1);
        let (tag, _) = ex.try_next_completion().expect("simulator cannot fail");
        assert_eq!(tag, 1);
        let boxed: Box<dyn PipelineExecutor> = Box::new(ex);
        assert!(boxed.try_finish().is_ok());
    }

    #[test]
    fn exec_error_displays_root_cause() {
        let e = ExecError {
            kind: ExecErrorKind::WorkerPanicked,
            message: "worker 2 panicked: boom".into(),
        };
        assert!(e.to_string().contains("worker 2"));
    }
}
