//! The threaded hierarchy-controller as a TD-Pipe execution plane.
//!
//! [`ThreadedExecutor`] implements `tdpipe-core`'s
//! [`PipelineExecutor`] trait over a live [`Cluster`] of worker threads,
//! so the *unmodified* TD-Pipe engine loop schedules real concurrent
//! workers. The integration tests assert the result is identical to the
//! simulator-backed run — the strongest form of the §3.2 claim this
//! reproduction can make without GPUs.
//!
//! A dead cluster becomes a clean, engine-visible
//! [`ExecError`] from [`PipelineExecutor::try_next_completion`] /
//! [`PipelineExecutor::try_finish`]: every wait is bounded by the
//! cluster's configured timeouts, a supervised worker failure is mapped
//! to its root cause, and an out-of-order completion (the shadow of a
//! lost stage message) is reported as a protocol violation instead of
//! silently corrupting the schedule.

use crate::cluster::{Cluster, ClusterOptions};
use crate::comm::JobSpec;
use crate::error::RuntimeError;
use crate::worker::WorkerLog;
use std::collections::VecDeque;
use std::time::Duration;
use tdpipe_core::exec::{ExecError, ExecErrorKind, PipelineExecutor, PlaneStats};
use tdpipe_sim::{SegmentKind, Timeline, TransferMode};

impl From<RuntimeError> for ExecError {
    fn from(e: RuntimeError) -> Self {
        let kind = match &e {
            RuntimeError::WorkerPanicked { .. } => ExecErrorKind::WorkerPanicked,
            RuntimeError::ChannelDisconnected { .. } => ExecErrorKind::Disconnected,
            RuntimeError::ShutdownTimedOut { .. } | RuntimeError::CompletionTimedOut { .. } => {
                ExecErrorKind::Timeout
            }
            RuntimeError::AckProtocolViolation { .. } => ExecErrorKind::ProtocolViolation,
        };
        ExecError {
            kind,
            message: e.to_string(),
        }
    }
}

/// A [`Cluster`]-backed execution plane.
pub struct ThreadedExecutor {
    cluster: Option<Cluster>,
    outstanding: usize,
    /// Tags in launch order — the completion order the FIFO pipeline
    /// guarantees; a mismatch means a stage message was lost.
    expected: VecDeque<u64>,
    last_finish: f64,
    /// High-water mark of jobs in flight, for the metrics plane.
    depth_hw: usize,
    record_timeline: bool,
    completion_timeout: Duration,
    shutdown_deadline: Duration,
    /// First failure observed; sticky, so every later call reports the
    /// same root cause instead of probing a dead cluster again.
    error: Option<ExecError>,
}

impl ThreadedExecutor {
    /// Spawn `num_stages` worker threads with the given transfer
    /// semantics and no injected faults.
    pub fn spawn(num_stages: u32, mode: TransferMode, record_timeline: bool) -> Self {
        Self::spawn_with(
            num_stages,
            mode,
            ClusterOptions {
                record_segments: record_timeline,
                ..ClusterOptions::default()
            },
        )
    }

    /// Spawn with explicit [`ClusterOptions`] (fault plans, timeouts,
    /// segment recording). `record_segments` doubles as the executor's
    /// timeline flag.
    pub fn spawn_with(num_stages: u32, mode: TransferMode, opts: ClusterOptions) -> Self {
        let record_timeline = opts.record_segments;
        let completion_timeout = opts.completion_timeout;
        let shutdown_deadline = opts.shutdown_deadline;
        ThreadedExecutor {
            cluster: Some(Cluster::spawn_with(num_stages, mode, opts)),
            outstanding: 0,
            expected: VecDeque::new(),
            last_finish: 0.0,
            depth_hw: 0,
            record_timeline,
            completion_timeout,
            shutdown_deadline,
            error: None,
        }
    }

    fn fail(&mut self, e: ExecError) -> ExecError {
        self.error = Some(e.clone());
        e
    }

    /// The error for any call arriving after `finish`/`try_finish`
    /// consumed the cluster — a caller-side sequencing bug, reported as
    /// a protocol violation instead of a panic so the engine's failure
    /// path stays structured.
    fn use_after_finish() -> ExecError {
        ExecError {
            kind: ExecErrorKind::ProtocolViolation,
            message: "executor used after finish: the cluster is already shut down".to_string(),
        }
    }

    fn feed_timeline(logs: &[WorkerLog], timeline: &mut Timeline) {
        for (rank, log) in logs.iter().enumerate() {
            match log {
                WorkerLog::Segments(segs) => {
                    for seg in segs {
                        timeline.record(rank as u32, seg.start, seg.end, seg.kind, seg.job);
                    }
                }
                WorkerLog::Summary(s) if s.jobs > 0 => {
                    timeline.record_busy(rank as u32, s.busy, s.first_start, s.last_end);
                }
                WorkerLog::Summary(_) => {}
            }
        }
    }
}

impl PipelineExecutor for ThreadedExecutor {
    fn launch(&mut self, ready: f64, exec: &[f64], xfer: &[f64], kind: SegmentKind, tag: u64) {
        if self.error.is_some() {
            // Sink: the failure is reported from the completion path.
            self.outstanding += 1;
            self.depth_hw = self.depth_hw.max(self.outstanding);
            return;
        }
        let Some(cluster) = self.cluster.as_mut() else {
            self.error = Some(Self::use_after_finish());
            self.outstanding += 1;
            self.depth_hw = self.depth_hw.max(self.outstanding);
            return;
        };
        let result = cluster.launch(JobSpec {
            id: tag,
            ready,
            exec: exec.to_vec(),
            xfer: xfer.to_vec(),
            kind,
        });
        if let Err(e) = result {
            self.error = Some(e.into());
        } else {
            self.expected.push_back(tag);
        }
        self.outstanding += 1;
        self.depth_hw = self.depth_hw.max(self.outstanding);
    }

    #[expect(clippy::panic, reason = "the trait's infallible surface: its documented contract is \
        to panic with the root cause; fallible callers use `try_next_completion`")]
    fn next_completion(&mut self) -> (u64, f64) {
        self.try_next_completion().unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_next_completion(&mut self) -> Result<(u64, f64), ExecError> {
        assert!(self.outstanding > 0, "no outstanding job to complete");
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let timeout = self.completion_timeout;
        let Some(cluster) = self.cluster.as_mut() else {
            return Err(self.fail(Self::use_after_finish()));
        };
        let done = match cluster.next_completion(timeout) {
            Ok(done) => done,
            Err(e) => return Err(self.fail(e.into())),
        };
        let Some(expect) = self.expected.pop_front() else {
            return Err(self.fail(ExecError {
                kind: ExecErrorKind::ProtocolViolation,
                message: "outstanding count and expected-tag queue diverged".to_string(),
            }));
        };
        if done.id != expect {
            return Err(self.fail(ExecError {
                kind: ExecErrorKind::ProtocolViolation,
                message: format!(
                    "completion out of order: expected job {expect}, got {} — a stage \
                     message was lost",
                    done.id
                ),
            }));
        }
        self.outstanding -= 1;
        self.last_finish = self.last_finish.max(done.finish);
        Ok((done.id, done.finish))
    }

    fn outstanding(&self) -> usize {
        self.outstanding
    }

    fn plane_stats(&self) -> PlaneStats {
        PlaneStats {
            queue_depth_high_water: self.depth_hw,
        }
    }

    #[expect(clippy::panic, reason = "the trait's infallible surface: its documented contract is \
        to panic with the root cause; fallible callers use `try_finish`")]
    fn finish(self: Box<Self>) -> (f64, Timeline) {
        self.try_finish().unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_finish(mut self: Box<Self>) -> Result<(f64, Timeline), ExecError> {
        let deadline = self.shutdown_deadline;
        while self.outstanding > 0 {
            if let Err(e) = self.try_next_completion() {
                // Still drain the cluster (bounded) so worker threads are
                // reaped rather than leaked mid-test.
                if let Some(c) = self.cluster.take() {
                    let _ = c.shutdown(deadline);
                }
                return Err(e);
            }
        }
        let Some(cluster) = self.cluster.take() else {
            return Err(Self::use_after_finish());
        };
        let logs = cluster.shutdown(deadline).map_err(ExecError::from)?;
        let mut timeline = Timeline::new(self.record_timeline);
        Self::feed_timeline(&logs, &mut timeline);
        Ok((self.last_finish, timeline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_core::exec::SimExecutor;

    #[test]
    fn threaded_executor_matches_sim_executor() {
        let mut a: Box<dyn PipelineExecutor> =
            Box::new(ThreadedExecutor::spawn(3, TransferMode::Async, false));
        let mut b: Box<dyn PipelineExecutor> =
            Box::new(SimExecutor::new(3, TransferMode::Async, false));
        for id in 0..50u64 {
            let exec = vec![0.01 + (id % 7) as f64 * 0.003; 3];
            let xfer = vec![0.001; 2];
            a.launch(0.0, &exec, &xfer, SegmentKind::Decode, id);
            b.launch(0.0, &exec, &xfer, SegmentKind::Decode, id);
        }
        for _ in 0..50 {
            let (ta, fa) = a.next_completion();
            let (tb, fb) = b.next_completion();
            assert_eq!(ta, tb);
            assert!((fa - fb).abs() < 1e-9);
        }
        let (da, _) = a.finish();
        let (db, _) = b.finish();
        assert!((da - db).abs() < 1e-9);
    }

    #[test]
    fn summary_mode_preserves_utilization_aggregates() {
        // record_timeline=false must still report the same busy-time
        // aggregates (hence mean utilization) as the simulator does with
        // segment recording off.
        let run = |threaded: bool| -> (f64, Timeline) {
            let mut ex: Box<dyn PipelineExecutor> = if threaded {
                Box::new(ThreadedExecutor::spawn(3, TransferMode::Async, false))
            } else {
                Box::new(SimExecutor::new(3, TransferMode::Async, false))
            };
            for id in 0..40u64 {
                let exec = vec![0.02 + (id % 5) as f64 * 0.01; 3];
                ex.launch(0.0, &exec, &[0.001; 2], SegmentKind::Decode, id);
            }
            for _ in 0..40 {
                ex.next_completion();
            }
            ex.finish()
        };
        let (_, sim_tl) = run(false);
        let (_, thr_tl) = run(true);
        assert!(sim_tl.mean_utilization() > 0.0);
        assert!(
            (sim_tl.mean_utilization() - thr_tl.mean_utilization()).abs() < 1e-9,
            "sim {} vs threaded {}",
            sim_tl.mean_utilization(),
            thr_tl.mean_utilization()
        );
        assert!(thr_tl.segments().is_empty(), "no per-job segments kept");
    }
}
