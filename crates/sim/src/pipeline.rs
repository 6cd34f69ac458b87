//! The FIFO pipeline simulator every scheduler runs on.

use crate::timeline::{SegmentKind, Timeline};
use serde::{Deserialize, Serialize};

/// How inter-stage activation transfers interact with the sender.
///
/// The paper's hierarchy-controller exists precisely to turn device-to-
/// device transfers from *blocking* (the sender GPU idles until the
/// receiver takes the tensor) into *asynchronous* (§3.2). Keeping both
/// modes lets us quantify that design choice (see the runtime ablation
/// bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferMode {
    /// Sender proceeds immediately; the payload arrives `xfer` later.
    /// This is what TD-Pipe's decoupled control/execution planes enable.
    Async,
    /// Sender is occupied for the wire time of the transfer, then free.
    Blocking,
    /// Rendezvous semantics (NCCL-style blocking send/recv, as in vLLM's
    /// pipeline executor): the sender is held until the *receiver accepts*
    /// the tensor — i.e. until the downstream stage has finished its
    /// previous job and starts this one. Irregular job sizes make this
    /// back-pressure cascade upstream; §3.2 of the paper motivates the
    /// hierarchy-controller with exactly this failure mode.
    Rendezvous,
}

/// Completion record of one launched job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobTiming {
    /// When the job started executing on stage 0.
    pub start: f64,
    /// When the job left the last stage (output available at the engine).
    pub finish: f64,
}

/// A multi-stage FIFO pipeline with per-stage serial execution.
///
/// Jobs are launched in engine order; each stage executes jobs in arrival
/// order (FIFO), which matches both vLLM's virtual-engine pipelining and
/// TD-Pipe's distributed runtime. The simulator applies the classic
/// recurrence
///
/// ```text
/// start(j, s)  = max(arrive(j, s), free(s))
/// finish(j, s) = start(j, s) + exec(j, s)
/// arrive(j, s+1) = finish(j, s) + xfer(j, s)
/// ```
///
/// Bubbles are *not* a modelling input — they emerge whenever a stage's
/// `free(s)` lags a job's `arrive(j, s)`, exactly as on hardware.
///
/// ```
/// use tdpipe_sim::{PipelineSim, SegmentKind, TransferMode};
///
/// let mut sim = PipelineSim::new(2, TransferMode::Async, false);
/// let t = sim.launch(0.0, &[1.0, 2.0], &[0.5], SegmentKind::Prefill, 0);
/// assert_eq!(t.finish, 3.5);
/// ```
#[derive(Debug, Clone)]
pub struct PipelineSim {
    stage_free: Vec<f64>,
    transfer_mode: TransferMode,
    timeline: Timeline,
}

impl PipelineSim {
    /// A pipeline of `num_stages` idle stages.
    ///
    /// # Panics
    /// Panics if `num_stages == 0`.
    pub fn new(num_stages: u32, transfer_mode: TransferMode, record_segments: bool) -> Self {
        assert!(num_stages > 0, "pipeline needs at least one stage");
        PipelineSim {
            stage_free: vec![0.0; num_stages as usize],
            transfer_mode,
            timeline: Timeline::new(record_segments),
        }
    }

    /// Number of stages.
    #[inline]
    pub fn num_stages(&self) -> u32 {
        self.stage_free.len() as u32
    }

    /// When each stage becomes free (read-only view).
    #[inline]
    pub fn stage_free(&self) -> &[f64] {
        &self.stage_free
    }

    /// The time the whole pipeline drains (max over stages).
    pub fn drained_at(&self) -> f64 {
        self.stage_free.iter().cloned().fold(0.0, f64::max)
    }

    /// Launch a job that becomes ready at `ready`, runs `exec[s]` seconds
    /// on stage `s`, and pays `xfer[s]` seconds moving from stage `s` to
    /// `s+1`.
    ///
    /// # Panics
    /// Panics unless `exec.len() == num_stages` and
    /// `xfer.len() + 1 == num_stages`.
    pub fn launch(&mut self, ready: f64, exec: &[f64], xfer: &[f64], kind: SegmentKind, tag: u64) -> JobTiming {
        let n = self.stage_free.len();
        assert_eq!(exec.len(), n, "exec times must cover every stage");
        assert_eq!(xfer.len() + 1, n, "need one transfer per stage boundary");

        let mut arrive = ready;
        let mut first_start = 0.0;
        let mut finish = 0.0;
        for s in 0..n {
            let start = arrive.max(self.stage_free[s]);
            finish = start + exec[s];
            if s == 0 {
                first_start = start;
            }
            self.timeline.record(s as u32, start, finish, kind, tag);
            if s + 1 < n {
                let (sender_free, next_arrive) = match self.transfer_mode {
                    TransferMode::Async => (finish, finish + xfer[s]),
                    TransferMode::Blocking | TransferMode::Rendezvous => {
                        (finish + xfer[s], finish + xfer[s])
                    }
                };
                self.stage_free[s] = sender_free;
                arrive = next_arrive;
                if self.transfer_mode == TransferMode::Rendezvous {
                    // The send completes only when the receiver accepts:
                    // the sender is additionally held until stage s+1
                    // actually starts this job.
                    let downstream_start = arrive.max(self.stage_free[s + 1]);
                    self.stage_free[s] = self.stage_free[s].max(downstream_start);
                }
            } else {
                self.stage_free[s] = finish;
            }
        }
        JobTiming {
            start: first_start,
            finish,
        }
    }

    /// Convenience for single-resource execution (tensor parallelism: all
    /// GPUs advance in lockstep, so the node behaves as one stage).
    pub fn launch_monolithic(&mut self, ready: f64, exec: f64, kind: SegmentKind, tag: u64) -> JobTiming {
        assert_eq!(self.num_stages(), 1, "monolithic launch needs 1 stage");
        self.launch(ready, &[exec], &[], kind, tag)
    }

    /// Access the recorded timeline.
    #[inline]
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Take the timeline out of the simulator (end of run).
    pub fn into_timeline(self) -> Timeline {
        self.timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(n: u32) -> PipelineSim {
        PipelineSim::new(n, TransferMode::Async, true)
    }

    #[test]
    fn single_job_passes_through_stages() {
        let mut p = sim(3);
        let t = p.launch(0.0, &[1.0, 2.0, 3.0], &[0.1, 0.1], SegmentKind::Prefill, 0);
        assert_eq!(t.start, 0.0);
        // 1.0 + 0.1 + 2.0 + 0.1 + 3.0
        assert!((t.finish - 6.2).abs() < 1e-12);
    }

    #[test]
    fn balanced_jobs_pipeline_perfectly() {
        // Four equal jobs through four equal stages with free transfers:
        // makespan = (stages + jobs - 1) * t.
        let mut p = sim(4);
        let exec = [1.0; 4];
        let xfer = [0.0; 3];
        let mut last = 0.0;
        for j in 0..4 {
            last = p.launch(0.0, &exec, &xfer, SegmentKind::Decode, j).finish;
        }
        assert!((last - 7.0).abs() < 1e-12);
        // Steady-state interior is bubble-free: stage 3 busy from t=3..7.
        assert!((p.timeline().busy_time(3) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn imbalanced_jobs_create_bubbles() {
        // A long job followed by a short one: the short job waits, and the
        // downstream stage idles — the paper's Figure 1 in miniature.
        let mut p = sim(2);
        p.launch(0.0, &[4.0, 1.0], &[0.0], SegmentKind::Prefill, 0);
        p.launch(0.0, &[1.0, 1.0], &[0.0], SegmentKind::Decode, 1);
        // Stage 1: busy [4,5] (job0) then [5,6] (job1) → busy 2, span 6.
        let tl = p.timeline();
        assert!((tl.busy_time(1) - 2.0).abs() < 1e-12);
        assert!(tl.mean_utilization() < 0.8);
    }

    #[test]
    fn blocking_transfers_hold_the_sender() {
        let mut a = PipelineSim::new(2, TransferMode::Async, false);
        let mut b = PipelineSim::new(2, TransferMode::Blocking, false);
        for j in 0..3 {
            a.launch(0.0, &[1.0, 1.0], &[0.5], SegmentKind::Decode, j);
            b.launch(0.0, &[1.0, 1.0], &[0.5], SegmentKind::Decode, j);
        }
        // Async: stage0 free at 3.0; blocking: each job holds it 1.5.
        assert!((a.stage_free()[0] - 3.0).abs() < 1e-12);
        assert!((b.stage_free()[0] - 4.5).abs() < 1e-12);
        assert!(b.drained_at() > a.drained_at());
    }

    #[test]
    fn rendezvous_backpressure_cascades_upstream() {
        // Stage 1 is busy with a long job; under rendezvous semantics the
        // sender of the next job is held until stage 1 accepts it.
        let mut r = PipelineSim::new(2, TransferMode::Rendezvous, false);
        let mut a = PipelineSim::new(2, TransferMode::Async, false);
        // Job 0: short on stage 0, very long on stage 1.
        r.launch(0.0, &[1.0, 10.0], &[0.0], SegmentKind::Prefill, 0);
        a.launch(0.0, &[1.0, 10.0], &[0.0], SegmentKind::Prefill, 0);
        // Job 1: stage 0 finishes at 2.0, but stage 1 accepts only at 11.0.
        r.launch(0.0, &[1.0, 1.0], &[0.0], SegmentKind::Decode, 1);
        a.launch(0.0, &[1.0, 1.0], &[0.0], SegmentKind::Decode, 1);
        // Async: stage 0 free at 2.0. Rendezvous: held until 11.0.
        assert!((a.stage_free()[0] - 2.0).abs() < 1e-12);
        assert!((r.stage_free()[0] - 11.0).abs() < 1e-12);
        // Job 2 on stage 0 therefore starts 9s later under rendezvous.
        let t_r = r.launch(0.0, &[1.0, 1.0], &[0.0], SegmentKind::Decode, 2);
        let t_a = a.launch(0.0, &[1.0, 1.0], &[0.0], SegmentKind::Decode, 2);
        assert!(t_r.start - t_a.start > 8.0);
    }

    #[test]
    fn ready_time_defers_start() {
        let mut p = sim(1);
        let t = p.launch(5.0, &[1.0], &[], SegmentKind::Decode, 0);
        assert_eq!(t.start, 5.0);
        assert_eq!(t.finish, 6.0);
    }

    #[test]
    fn fifo_order_is_preserved_even_for_unequal_jobs() {
        let mut p = sim(2);
        let t0 = p.launch(0.0, &[3.0, 1.0], &[0.0], SegmentKind::Prefill, 0);
        let t1 = p.launch(0.0, &[0.1, 0.1], &[0.0], SegmentKind::Decode, 1);
        assert!(t1.finish > t0.finish, "FIFO stages preserve completion order");
    }

    #[test]
    #[should_panic(expected = "exec times")]
    fn wrong_exec_len_panics() {
        sim(2).launch(0.0, &[1.0], &[0.0], SegmentKind::Decode, 0);
    }

    #[test]
    fn monolithic_serialises_jobs() {
        let mut p = PipelineSim::new(1, TransferMode::Async, false);
        p.launch_monolithic(0.0, 2.0, SegmentKind::Prefill, 0);
        let t = p.launch_monolithic(0.0, 2.0, SegmentKind::Prefill, 1);
        assert!((t.finish - 4.0).abs() < 1e-12);
    }
}
