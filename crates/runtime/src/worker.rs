//! The execution-plane worker: one thread per pipeline stage.

use crate::comm::{CommContext, Completion, StageMsg, StartAck};
use crate::error::RuntimeError;
use crate::fault::WorkerFaults;
use std::sync::mpsc::{Receiver, Sender};
use tdpipe_sim::{SegmentKind, TransferMode};

/// Tolerance for the rendezvous ack-protocol check: a downstream stage
/// can never start a job before its activations arrived.
const ACK_EPS: f64 = 1e-9;

/// Per-worker activity record (mirrors the simulator's timeline segments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerSegment {
    /// Job id.
    pub job: u64,
    /// Virtual start time on this stage.
    pub start: f64,
    /// Virtual end time on this stage.
    pub end: f64,
    /// Activity class.
    pub kind: SegmentKind,
}

/// Compact per-stage aggregates kept when full segment recording is off.
///
/// Long-running services must not grow a `WorkerSegment` per job forever;
/// these four numbers are all the utilization report needs, and the busy
/// sum accumulates in the same per-stage order the full log would, so
/// derived utilization stays bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerSummary {
    /// Jobs processed on this stage.
    pub jobs: u64,
    /// Total busy virtual seconds.
    pub busy: f64,
    /// Earliest segment start (`f64::INFINITY` when `jobs == 0`).
    pub first_start: f64,
    /// Latest segment end.
    pub last_end: f64,
}

impl Default for WorkerSummary {
    fn default() -> Self {
        WorkerSummary {
            jobs: 0,
            busy: 0.0,
            first_start: f64::INFINITY,
            last_end: 0.0,
        }
    }
}

/// What a worker hands back at exit: the full per-job log, or the
/// bounded-memory summary when the caller opted out of timelines.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerLog {
    /// One [`WorkerSegment`] per job (timeline recording on).
    Segments(Vec<WorkerSegment>),
    /// Bounded aggregates only (timeline recording off).
    Summary(WorkerSummary),
}

impl WorkerLog {
    /// Number of jobs this stage processed.
    pub fn jobs(&self) -> u64 {
        match self {
            WorkerLog::Segments(v) => v.len() as u64,
            WorkerLog::Summary(s) => s.jobs,
        }
    }

    /// The recorded segments (empty in summary mode).
    pub fn segments(&self) -> &[WorkerSegment] {
        match self {
            WorkerLog::Segments(v) => v,
            WorkerLog::Summary(_) => &[],
        }
    }

    /// Total busy virtual seconds on this stage.
    pub fn busy(&self) -> f64 {
        match self {
            WorkerLog::Segments(v) => v.iter().map(|s| s.end - s.start).sum(),
            WorkerLog::Summary(s) => s.busy,
        }
    }

    fn push(&mut self, job: u64, start: f64, end: f64, kind: SegmentKind) {
        match self {
            WorkerLog::Segments(v) => v.push(WorkerSegment { job, start, end, kind }),
            WorkerLog::Summary(s) => {
                s.jobs += 1;
                s.busy += end - start;
                s.first_start = s.first_start.min(start);
                s.last_end = s.last_end.max(end);
            }
        }
    }
}

/// A worker's exit report, sent on the supervision channel exactly once
/// per thread — after its channel endpoints are dropped, so neighbours
/// unblock before the supervisor even looks.
#[derive(Debug)]
pub struct WorkerExit {
    /// Reporting rank.
    pub rank: u32,
    /// The stage log on orderly exit, or the failure that ended it.
    pub outcome: Result<WorkerLog, RuntimeError>,
}

/// Channel endpoints a worker owns.
pub struct WorkerChannels {
    /// Jobs arriving from upstream (engine for rank 0).
    pub inbox: Receiver<StageMsg>,
    /// Next stage's inbox (None for the last stage).
    pub downstream: Option<Sender<StageMsg>>,
    /// Start-acks to the upstream sender (None for rank 0; used only in
    /// blocking/rendezvous modes).
    pub ack_tx: Option<Sender<StartAck>>,
    /// Start-acks from the downstream receiver (None for the last stage;
    /// used only in blocking/rendezvous modes).
    pub ack_rx: Option<Receiver<StartAck>>,
    /// Completions to the engine (last stage only).
    pub completions: Option<Sender<Completion>>,
}

/// Per-worker static configuration compiled by `Cluster::spawn_with`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkerConfig {
    /// Transfer semantics (shared by all stages).
    pub mode: TransferMode,
    /// This rank's injected-fault trigger points.
    pub faults: WorkerFaults,
    /// Keep the full per-job segment log (`false` → bounded summary).
    pub record_segments: bool,
}

/// Run one stage's worker loop until `Shutdown` arrives, a channel
/// disconnects, or a protocol violation is detected. Returns the stage's
/// activity log on orderly exit.
///
/// The worker advances a private *virtual clock*: a job arriving at
/// `arrive` starts at `max(arrive, clock)`, runs for its `exec[rank]`
/// seconds, then is forwarded downstream with the transfer delay added.
/// Under [`TransferMode::Async`] the worker moves on immediately — the
/// hierarchy-controller behaviour; under `Blocking`/`Rendezvous` it waits
/// for the wire (and, for rendezvous, for the downstream worker to
/// actually accept), reproducing conventional engines' stalls.
///
/// Failure model: no channel operation panics. A closed endpoint means a
/// neighbour died; the worker returns
/// [`RuntimeError::ChannelDisconnected`], dropping its own endpoints on
/// the way out so the disconnect cascades and every stage unblocks.
pub(crate) fn run_worker(
    ctx: CommContext,
    ch: WorkerChannels,
    cfg: WorkerConfig,
) -> Result<WorkerLog, RuntimeError> {
    let mut clock = 0.0f64;
    let rank = ctx.rank;
    let r = rank as usize;
    let mut log = if cfg.record_segments {
        WorkerLog::Segments(Vec::new())
    } else {
        WorkerLog::Summary(WorkerSummary::default())
    };
    let mut job_idx: u64 = 0;
    let disconnected = |context: &'static str| RuntimeError::ChannelDisconnected { rank, context };

    loop {
        let msg = match ch.inbox.recv() {
            Ok(m) => m,
            // The upstream endpoint vanished without sending `Shutdown`:
            // a neighbour (or the engine) died. Exit so the cascade
            // continues downstream.
            Err(_) => return Err(disconnected("inbox closed before shutdown")),
        };
        match msg {
            StageMsg::Shutdown => {
                if let Some(d) = &ch.downstream {
                    if d.send(StageMsg::Shutdown).is_err() {
                        return Err(disconnected("downstream gone during shutdown"));
                    }
                }
                return Ok(log);
            }
            StageMsg::Job { spec, arrive } => {
                let this_job = job_idx;
                job_idx += 1;
                if cfg.faults.stall_at == Some(this_job) {
                    // Deliberate deadlock: the fault the bounded shutdown
                    // drain exists for. Never exits, never reports.
                    loop {
                        std::thread::park();
                    }
                }
                #[expect(clippy::panic, reason = "this IS the injected fault: the supervision \
                    tests exist to prove this panic surfaces as WorkerPanicked, not a hang")]
                if cfg.faults.panic_at == Some(this_job) {
                    panic!("injected fault: rank {rank} panics at job index {this_job}");
                }
                let dropped = cfg.faults.drop_at == Some(this_job);
                let start = arrive.max(clock);
                // Rendezvous: tell the upstream sender when we accepted.
                if cfg.mode == TransferMode::Rendezvous {
                    if let Some(ack) = &ch.ack_tx {
                        let started = if cfg.faults.corrupt_ack_at == Some(this_job) {
                            arrive - 1.0 // impossible: before the activations arrived
                        } else {
                            start
                        };
                        if ack.send(StartAck { started }).is_err() {
                            return Err(disconnected("upstream ack listener gone"));
                        }
                    }
                }
                let finish = start + spec.exec[r];
                let job_id = spec.id;
                clock = finish;
                log.push(job_id, start, finish, spec.kind);
                if ctx.is_last() {
                    if !dropped {
                        #[expect(clippy::expect_used, reason = "channel topology fixed at spawn: \
                            the cluster always wires the last rank with a completion sender")]
                        let tx = ch.completions.as_ref().expect("last stage reports completions");
                        if tx
                            .send(Completion {
                                id: spec.id,
                                finish,
                            })
                            .is_err()
                        {
                            return Err(disconnected("engine dropped the completion stream"));
                        }
                    }
                } else {
                    let mut wire = spec.xfer[r];
                    if let Some((j, delay)) = cfg.faults.delay_at {
                        if j == this_job {
                            wire += delay;
                        }
                    }
                    let arrive_next = finish + wire;
                    if !dropped {
                        #[expect(clippy::expect_used, reason = "channel topology fixed at spawn: \
                            every non-last rank is wired with a downstream sender")]
                        let d = ch.downstream.as_ref().expect("non-last stage has downstream");
                        if d.send(StageMsg::Job {
                            spec,
                            arrive: arrive_next,
                        })
                        .is_err()
                        {
                            return Err(disconnected("downstream worker gone"));
                        }
                    }
                    match cfg.mode {
                        TransferMode::Async => {}
                        TransferMode::Blocking => {
                            // Sender occupied for the wire time.
                            clock = finish + wire;
                        }
                        TransferMode::Rendezvous => {
                            // Sender held until the receiver accepts. A
                            // dropped message was never seen downstream,
                            // so there is no ack to wait for.
                            clock = finish + wire;
                            if !dropped {
                                #[expect(clippy::expect_used, reason = "channel topology fixed at \
                                    spawn: rendezvous clusters wire every sender with an ack \
                                    receiver")]
                                let ack_rx = ch.ack_rx.as_ref().expect("rendezvous ack channel");
                                let ack = match ack_rx.recv() {
                                    Ok(a) => a,
                                    Err(_) => {
                                        return Err(disconnected(
                                            "downstream died before acking",
                                        ))
                                    }
                                };
                                if ack.started < arrive_next - ACK_EPS {
                                    return Err(RuntimeError::AckProtocolViolation {
                                        rank,
                                        detail: format!(
                                            "job {job_id} acked start {} before its arrival {}",
                                            ack.started, arrive_next
                                        ),
                                    });
                                }
                                clock = clock.max(ack.started);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_log_tracks_aggregates() {
        let mut log = WorkerLog::Summary(WorkerSummary::default());
        log.push(0, 1.0, 2.5, SegmentKind::Decode);
        log.push(1, 3.0, 3.5, SegmentKind::Prefill);
        assert_eq!(log.jobs(), 2);
        assert!((log.busy() - 2.0).abs() < 1e-12);
        assert!(log.segments().is_empty());
        match log {
            WorkerLog::Summary(s) => {
                assert_eq!(s.first_start, 1.0);
                assert_eq!(s.last_end, 3.5);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn segment_log_matches_summary_busy() {
        let mut seg = WorkerLog::Segments(Vec::new());
        let mut sum = WorkerLog::Summary(WorkerSummary::default());
        for i in 0..10u64 {
            let s = i as f64 * 0.5;
            seg.push(i, s, s + 0.25, SegmentKind::Decode);
            sum.push(i, s, s + 0.25, SegmentKind::Decode);
        }
        assert_eq!(seg.jobs(), sum.jobs());
        assert!((seg.busy() - sum.busy()).abs() < 1e-12);
        assert_eq!(seg.segments().len(), 10);
    }
}
