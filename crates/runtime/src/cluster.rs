//! The control-plane handle: spawn workers, launch jobs, collect results.

use crate::comm::{CommContext, Completion, JobSpec, StageMsg, StartAck};
use crate::error::RuntimeError;
use crate::fault::FaultPlan;
use crate::worker::{run_worker, WorkerChannels, WorkerConfig, WorkerExit, WorkerLog};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tdpipe_sim::TransferMode;

/// How long the disconnect path waits for the *root-cause* exit report.
///
/// A failing worker drops its channel endpoints (unblocking neighbours)
/// *before* it sends its own exit report, so the disconnect cascade can
/// reach the engine a scheduling quantum ahead of the report that
/// explains it. The report is causally already in flight at that point;
/// this grace bound is how long we let it land before settling for the
/// bare disconnect.
const SUPERVISION_GRACE: Duration = Duration::from_millis(200);

/// Spawn-time configuration for a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Keep the full per-job segment log on every worker (`false` keeps
    /// bounded per-stage aggregates instead — the right setting for long
    /// runs that don't need a timeline).
    pub record_segments: bool,
    /// Injected faults ([`FaultPlan::none`] in production).
    pub faults: FaultPlan,
    /// Default bounded wait used by [`Cluster::next_completion`].
    pub completion_timeout: Duration,
    /// Default bounded wait used by the executor's shutdown path.
    pub shutdown_deadline: Duration,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            record_segments: true,
            faults: FaultPlan::none(),
            completion_timeout: Duration::from_secs(10),
            shutdown_deadline: Duration::from_secs(10),
        }
    }
}

/// A running execution plane: `world` worker threads chained by channels.
///
/// The caller is the centralized engine. `launch` is non-blocking (the
/// whole point of the hierarchy-controller); completions arrive via
/// [`Cluster::next_completion`] in pipeline order.
///
/// # Supervision protocol
///
/// Every worker runs under `catch_unwind` and reports exactly one
/// [`WorkerExit`] on a dedicated supervision channel — *after* its own
/// channel endpoints are dropped. A dead stage therefore disconnects its
/// neighbours, which exit with [`RuntimeError::ChannelDisconnected`] and
/// report in turn: one failure drains the whole pipeline instead of
/// wedging it. The engine-facing calls translate whatever the
/// supervision channel holds into the most severe root cause (a panic
/// outranks the disconnects it causes). Dropping a `Cluster` without
/// calling [`Cluster::shutdown`] is also safe: closing `to_first`
/// triggers the same cascade and the detached workers exit on their own.
pub struct Cluster {
    world: u32,
    to_first: Sender<StageMsg>,
    completions: Receiver<Completion>,
    supervision: Receiver<WorkerExit>,
    /// Exit reports consumed while probing for a root cause before
    /// shutdown; replayed by the shutdown drain.
    early_exits: Vec<WorkerExit>,
    handles: Vec<JoinHandle<()>>,
}

/// Render a panic payload for the error report.
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Cluster {
    /// Spawn `world` workers with the given transfer semantics and
    /// default options (full segment logs, no faults).
    ///
    /// # Panics
    /// Panics if `world == 0` or an OS thread cannot be spawned.
    pub fn spawn(world: u32, mode: TransferMode) -> Self {
        Self::spawn_with(world, mode, ClusterOptions::default())
    }

    /// Spawn `world` workers with explicit [`ClusterOptions`].
    ///
    /// # Panics
    /// Panics if `world == 0` or an OS thread cannot be spawned.
    pub fn spawn_with(world: u32, mode: TransferMode, opts: ClusterOptions) -> Self {
        assert!(world > 0, "need at least one worker");
        let (to_first, first_inbox) = channel::<StageMsg>();
        let (comp_tx, completions) = channel::<Completion>();
        let (sup_tx, supervision) = channel::<WorkerExit>();

        let mut handles = Vec::with_capacity(world as usize);
        // Each iteration consumes the inbox the previous one created; the
        // last stage simply has no downstream, so no throwaway channel is
        // ever fabricated.
        let mut inbox = Some(first_inbox);
        let mut ack_tx_prev: Option<Sender<StartAck>> = None;
        for rank in 0..world {
            let ctx = CommContext { rank, world };
            let is_last = rank + 1 == world;
            let (downstream, next_inbox, ack_tx, ack_rx) = if is_last {
                (None, None, ack_tx_prev.take(), None)
            } else {
                let (d_tx, d_rx) = channel::<StageMsg>();
                let (a_tx, a_rx) = channel::<StartAck>();
                (Some(d_tx), Some(d_rx), ack_tx_prev.replace(a_tx), Some(a_rx))
            };
            let channels = WorkerChannels {
                #[expect(clippy::expect_used, reason = "loop invariant fixed at spawn: iteration k \
                    consumes the inbox iteration k-1 created; violating it is a wiring bug, not a \
                    runtime failure")]
                inbox: inbox.take().expect("one inbox per rank"),
                downstream,
                ack_tx,
                ack_rx,
                completions: is_last.then(|| comp_tx.clone()),
            };
            let cfg = WorkerConfig {
                mode,
                faults: opts.faults.compile(rank),
                record_segments: opts.record_segments,
            };
            let sup = sup_tx.clone();
            #[expect(clippy::expect_used, reason = "OS thread exhaustion at spawn is unrecoverable \
                and documented under `# Panics` on `spawn_with`")]
            handles.push(
                std::thread::Builder::new()
                    .name(format!("tdpipe-worker-{rank}"))
                    .spawn(move || {
                        // `channels` lives inside the closure: whether the
                        // worker returns or unwinds, its endpoints drop
                        // before the exit report is sent.
                        let outcome =
                            match std::panic::catch_unwind(AssertUnwindSafe(|| {
                                run_worker(ctx, channels, cfg)
                            })) {
                                Ok(result) => result,
                                Err(payload) => Err(RuntimeError::WorkerPanicked {
                                    rank,
                                    detail: panic_detail(payload),
                                }),
                            };
                        let _ = sup.send(WorkerExit { rank, outcome });
                    })
                    .expect("spawn worker thread"),
            );
            inbox = next_inbox;
        }
        debug_assert!(inbox.is_none(), "every inbox is owned by a worker");
        Cluster {
            world,
            to_first,
            completions,
            supervision,
            early_exits: Vec::new(),
            handles,
        }
    }

    /// Number of pipeline stages.
    #[inline]
    pub fn world(&self) -> u32 {
        self.world
    }

    /// Launch a job asynchronously (returns immediately). Fails with the
    /// root-cause [`RuntimeError`] when the first stage is gone.
    ///
    /// # Panics
    /// Panics if the spec's vector lengths don't match the world size
    /// (API misuse, not a runtime failure).
    pub fn launch(&mut self, spec: JobSpec) -> Result<(), RuntimeError> {
        assert_eq!(spec.exec.len(), self.world as usize, "exec per stage");
        assert_eq!(
            spec.xfer.len() + 1,
            self.world as usize,
            "xfer per boundary"
        );
        let arrive = spec.ready;
        if self.to_first.send(StageMsg::Job { spec, arrive }).is_err() {
            return Err(self.settled_root_cause().unwrap_or(
                RuntimeError::ChannelDisconnected {
                    rank: 0,
                    context: "first stage inbox closed",
                },
            ));
        }
        Ok(())
    }

    /// Wait (bounded) for the next completion. On failure, reports the
    /// most severe root cause the supervision channel knows about —
    /// e.g. [`RuntimeError::WorkerPanicked`] rather than the secondary
    /// disconnects it caused. A bare timeout with every worker healthy
    /// becomes [`RuntimeError::CompletionTimedOut`] (a lost message).
    pub fn next_completion(&mut self, timeout: Duration) -> Result<Completion, RuntimeError> {
        match self.completions.recv_timeout(timeout) {
            Ok(c) => Ok(c),
            Err(RecvTimeoutError::Disconnected) => {
                Err(self.settled_root_cause().unwrap_or(
                    RuntimeError::ChannelDisconnected {
                        rank: self.world - 1,
                        context: "completion stream closed",
                    },
                ))
            }
            Err(RecvTimeoutError::Timeout) => match self.root_cause() {
                Some(e) => Err(e),
                None => Err(RuntimeError::CompletionTimedOut { waited: timeout }),
            },
        }
    }

    /// Drain whatever the supervision channel holds right now and return
    /// the most severe failure reported so far, if any. Consumed reports
    /// are stashed for the shutdown drain.
    fn root_cause(&mut self) -> Option<RuntimeError> {
        while let Ok(exit) = self.supervision.try_recv() {
            self.early_exits.push(exit);
        }
        self.early_exits
            .iter()
            .filter_map(|e| e.outcome.as_ref().err())
            .max_by_key(|e| e.severity())
            .cloned()
    }

    /// [`Self::root_cause`], but when all we have so far is cascade noise
    /// (bare disconnects), wait up to [`SUPERVISION_GRACE`] for the
    /// higher-severity report — a panic or protocol violation — that is
    /// causally in flight behind the disconnect we just observed.
    fn settled_root_cause(&mut self) -> Option<RuntimeError> {
        let deadline = Instant::now() + SUPERVISION_GRACE;
        loop {
            let worst = self.root_cause();
            match &worst {
                Some(e) if !matches!(e, RuntimeError::ChannelDisconnected { .. }) => {
                    return worst
                }
                _ => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return worst;
            }
            match self.supervision.recv_timeout(deadline - now) {
                Ok(exit) => self.early_exits.push(exit),
                Err(_) => return self.root_cause(),
            }
        }
    }

    /// Shut the pipeline down and collect every worker's activity log,
    /// indexed by rank.
    ///
    /// This call **never hangs**: it sends `Shutdown` down the chain,
    /// then waits at most `deadline` for all `world` exit reports. If a
    /// stage died without forwarding `Shutdown`, the disconnect cascade
    /// still produces a report from every live worker; a worker that is
    /// truly wedged (see [`crate::fault::Fault::StallAt`]) makes the
    /// drain return [`RuntimeError::ShutdownTimedOut`] with the missing
    /// ranks, leaving their threads detached rather than joining them.
    ///
    /// When any worker failed, the most severe root cause is returned
    /// instead of the logs.
    pub fn shutdown(self, deadline: Duration) -> Result<Vec<WorkerLog>, RuntimeError> {
        let Cluster {
            world,
            to_first,
            completions,
            supervision,
            early_exits,
            handles,
        } = self;
        // If rank 0 is already dead this send fails; the cascade that
        // killed it is also what will drain everyone else.
        let _ = to_first.send(StageMsg::Shutdown);
        drop(to_first);
        drop(completions);

        let start = Instant::now();
        let mut exits: Vec<Option<Result<WorkerLog, RuntimeError>>> =
            (0..world).map(|_| None).collect();
        let mut reported = 0usize;
        for exit in early_exits {
            if exits[exit.rank as usize].is_none() {
                reported += 1;
            }
            exits[exit.rank as usize] = Some(exit.outcome);
        }
        while reported < world as usize {
            let missing: Vec<u32> = (0..world)
                .filter(|&r| exits[r as usize].is_none())
                .collect();
            let Some(remaining) = deadline.checked_sub(start.elapsed()) else {
                return Err(RuntimeError::ShutdownTimedOut {
                    waited: start.elapsed(),
                    missing,
                });
            };
            match supervision.recv_timeout(remaining) {
                Ok(exit) => {
                    if exits[exit.rank as usize].is_none() {
                        reported += 1;
                    }
                    exits[exit.rank as usize] = Some(exit.outcome);
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(RuntimeError::ShutdownTimedOut {
                        waited: start.elapsed(),
                        missing,
                    })
                }
                // Cannot happen while we hold the receiver and threads
                // each send once; treat it as the missing ranks' loss.
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(RuntimeError::ChannelDisconnected {
                        rank: missing.first().copied().unwrap_or(0),
                        context: "supervision channel closed early",
                    })
                }
            }
        }
        // Every worker has reported (its last act): joins are bounded.
        for h in handles {
            let _ = h.join();
        }
        let mut worst: Option<RuntimeError> = None;
        for outcome in exits.iter().flatten() {
            if let Err(e) = outcome {
                if worst.as_ref().is_none_or(|w| e.severity() > w.severity()) {
                    worst = Some(e.clone());
                }
            }
        }
        if let Some(e) = worst {
            return Err(e);
        }
        let mut logs = Vec::with_capacity(world as usize);
        for (rank, outcome) in exits.into_iter().enumerate() {
            match outcome {
                Some(Ok(log)) => logs.push(log),
                // Both defensive arms are unreachable — the drain loop
                // guarantees every slot is `Some`, and `worst` already
                // surfaced any failure — but a lost report must degrade
                // to a structured error, not a panic in the drain path.
                Some(Err(e)) => return Err(e),
                None => {
                    return Err(RuntimeError::ChannelDisconnected {
                        rank: rank as u32,
                        context: "exit report lost in shutdown drain",
                    })
                }
            }
        }
        Ok(logs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_sim::{PipelineSim, SegmentKind};

    const WAIT: Duration = Duration::from_secs(5);

    fn spec(id: u64, ready: f64, exec: Vec<f64>, xfer: Vec<f64>) -> JobSpec {
        JobSpec {
            id,
            ready,
            exec,
            xfer,
            kind: SegmentKind::Decode,
        }
    }

    #[test]
    fn single_job_latency() {
        let mut c = Cluster::spawn(3, TransferMode::Async);
        c.launch(spec(7, 0.0, vec![1.0, 2.0, 3.0], vec![0.1, 0.1])).unwrap();
        let done = c.next_completion(WAIT).unwrap();
        assert_eq!(done.id, 7);
        assert!((done.finish - 6.2).abs() < 1e-12);
        c.shutdown(WAIT).unwrap();
    }

    #[test]
    fn threaded_async_matches_simulator_exactly() {
        // 200 jobs with pseudo-random shapes through 4 stages: the real
        // thread pipeline and the deterministic simulator must agree on
        // every completion time.
        let world = 4u32;
        let mut c = Cluster::spawn(world, TransferMode::Async);
        let mut sim = PipelineSim::new(world, TransferMode::Async, false);
        let mut expect = Vec::new();
        let mut x = 9_u64;
        for id in 0..200u64 {
            // xorshift for deterministic "random" durations
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let exec: Vec<f64> = (0..world)
                .map(|s| ((x >> (s * 8)) & 0xff) as f64 / 256.0 + 0.01)
                .collect();
            let xfer = vec![0.005; world as usize - 1];
            let ready = (id as f64) * 0.01;
            let t = sim.launch(ready, &exec, &xfer, SegmentKind::Decode, id);
            expect.push((id, t.finish));
            c.launch(spec(id, ready, exec, xfer)).unwrap();
        }
        for (id, finish) in expect {
            let done = c.next_completion(WAIT).unwrap();
            assert_eq!(done.id, id, "completion order must match launch order");
            assert!(
                (done.finish - finish).abs() < 1e-9,
                "job {id}: threads {} vs sim {finish}",
                done.finish
            );
        }
        let logs = c.shutdown(WAIT).unwrap();
        assert_eq!(logs.len(), world as usize);
        assert!(logs.iter().all(|l| l.jobs() == 200));
    }

    #[test]
    fn rendezvous_mode_matches_simulator() {
        let world = 3u32;
        let mut c = Cluster::spawn(world, TransferMode::Rendezvous);
        let mut sim = PipelineSim::new(world, TransferMode::Rendezvous, false);
        let mut expect = Vec::new();
        for id in 0..50u64 {
            let long = if id % 5 == 0 { 0.5 } else { 0.02 };
            let exec = vec![0.03, long, 0.03];
            let xfer = vec![0.002; 2];
            let t = sim.launch(0.0, &exec, &xfer, SegmentKind::Prefill, id);
            expect.push(t.finish);
            c.launch(spec(id, 0.0, exec, xfer)).unwrap();
        }
        for (id, finish) in expect.into_iter().enumerate() {
            let done = c.next_completion(WAIT).unwrap();
            assert_eq!(done.id as usize, id);
            assert!(
                (done.finish - finish).abs() < 1e-9,
                "job {id}: threads {} vs sim {finish}",
                done.finish
            );
        }
        c.shutdown(WAIT).unwrap();
    }

    #[test]
    fn async_beats_rendezvous_under_imbalance() {
        // The §3.2 claim, demonstrated with real threads: with irregular
        // jobs, decoupled (async) transfers finish the same workload in
        // less virtual time than blocking rendezvous transfers.
        let run = |mode| {
            let mut c = Cluster::spawn(4, mode);
            for id in 0..40u64 {
                let exec = if id % 4 == 0 {
                    vec![0.4, 0.4, 0.4, 0.4]
                } else {
                    vec![0.02, 0.02, 0.02, 0.02]
                };
                c.launch(spec(id, 0.0, exec, vec![0.001; 3])).unwrap();
            }
            let mut last = 0.0;
            for _ in 0..40 {
                last = c.next_completion(WAIT).unwrap().finish;
            }
            c.shutdown(WAIT).unwrap();
            last
        };
        let async_t = run(TransferMode::Async);
        let rendezvous_t = run(TransferMode::Rendezvous);
        assert!(
            async_t < rendezvous_t,
            "async {async_t} should beat rendezvous {rendezvous_t}"
        );
    }

    #[test]
    fn single_stage_world() {
        let mut c = Cluster::spawn(1, TransferMode::Async);
        c.launch(spec(0, 0.5, vec![1.0], vec![])).unwrap();
        let done = c.next_completion(WAIT).unwrap();
        assert!((done.finish - 1.5).abs() < 1e-12);
        let logs = c.shutdown(WAIT).unwrap();
        assert_eq!(logs[0].jobs(), 1);
    }

    #[test]
    fn summary_mode_keeps_aggregates_not_segments() {
        let opts = ClusterOptions {
            record_segments: false,
            ..ClusterOptions::default()
        };
        let mut c = Cluster::spawn_with(2, TransferMode::Async, opts);
        for id in 0..10u64 {
            c.launch(spec(id, 0.0, vec![0.5, 0.25], vec![0.01])).unwrap();
        }
        for _ in 0..10 {
            c.next_completion(WAIT).unwrap();
        }
        let logs = c.shutdown(WAIT).unwrap();
        assert_eq!(logs.len(), 2);
        for log in &logs {
            assert_eq!(log.jobs(), 10);
            assert!(log.segments().is_empty(), "summary mode keeps no segments");
            assert!(log.busy() > 0.0);
        }
        assert!((logs[0].busy() - 5.0).abs() < 1e-9);
        assert!((logs[1].busy() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn dropping_a_cluster_without_shutdown_is_clean() {
        // No shutdown message at all: closing the engine-side endpoints
        // must cascade the disconnect so detached workers exit on their
        // own instead of leaking blocked threads.
        let mut c = Cluster::spawn(4, TransferMode::Async);
        c.launch(spec(0, 0.0, vec![0.1; 4], vec![0.0; 3])).unwrap();
        c.next_completion(WAIT).unwrap();
        drop(c);
    }
}
