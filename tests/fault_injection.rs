//! Deadlock-regression tests for the supervised hierarchy-controller.
//!
//! Every `FaultPlan` variant is driven through a 4-stage pipeline and
//! must surface a *structured* `RuntimeError` (or, at engine level, an
//! `ExecError`) — no panic propagation across threads, and crucially no
//! hang: each scenario runs under a wall-clock watchdog so a regression
//! that reintroduces the old `shutdown`-deadlock *fails* instead of
//! wedging CI forever.

use std::sync::mpsc;
use std::sync::Once;
use std::thread;
use std::time::Duration;
use tdpipe::core::exec::ExecErrorKind;
use tdpipe::runtime::{Cluster, ClusterOptions, FaultPlan, JobSpec, RuntimeError};
use tdpipe::sim::{SegmentKind, TransferMode};

/// Generous bound for in-test waits on healthy paths.
const WAIT: Duration = Duration::from_secs(5);
/// Short bound for waits that are *expected* to expire.
const SHORT: Duration = Duration::from_millis(250);
/// Wall-clock budget per scenario; far above any healthy run, far below
/// a CI hang.
const WATCHDOG: Duration = Duration::from_secs(30);

/// Silence the default panic printer for injected faults so the test
/// log stays readable; everything else still prints.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("injected fault"))
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}

/// Run `f` on its own thread; fail the test if it neither returns nor
/// panics within the watchdog budget.
fn with_watchdog<T: Send + 'static>(name: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    quiet_injected_panics();
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(v) => {
            let _ = handle.join();
            v
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The scenario panicked: propagate its message.
            match handle.join() {
                Err(p) => std::panic::resume_unwind(p),
                Ok(()) => unreachable!("sender dropped without a panic"),
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("watchdog: scenario '{name}' hung for {WATCHDOG:?} — deadlock regression")
        }
    }
}

fn spec(world: u32, id: u64) -> JobSpec {
    JobSpec {
        id,
        ready: 0.0,
        exec: vec![0.01; world as usize],
        xfer: vec![0.001; world as usize - 1],
        kind: SegmentKind::Decode,
    }
}

fn opts(faults: FaultPlan, completion_timeout: Duration) -> ClusterOptions {
    ClusterOptions {
        faults,
        completion_timeout,
        shutdown_deadline: Duration::from_secs(2),
        ..ClusterOptions::default()
    }
}

/// Panic at the given rank mid-stream; both the completion path and the
/// shutdown drain must report `WorkerPanicked{rank}` within bounds.
fn panic_scenario(rank: u32) {
    let world = 4u32;
    let plan = FaultPlan::none().panic_at(rank, 5);
    let mut c = Cluster::spawn_with(world, TransferMode::Async, opts(plan, WAIT));
    for id in 0..20u64 {
        // Launch may start failing once the cascade reaches rank 0;
        // either way the error must be the structured panic report.
        if let Err(e) = c.launch(spec(world, id)) {
            assert!(
                matches!(e, RuntimeError::WorkerPanicked { rank: r, .. } if r == rank),
                "launch error should name the panicked rank: {e}"
            );
            break;
        }
    }
    // Jobs before the fault still complete; then the failure surfaces.
    let mut completions = 0;
    let err = loop {
        match c.next_completion(WAIT) {
            Ok(done) => {
                assert_eq!(done.id, completions, "pre-fault completions stay ordered");
                completions += 1;
                assert!(completions <= 20, "cannot complete more than launched");
            }
            Err(e) => break e,
        }
    };
    match &err {
        RuntimeError::WorkerPanicked { rank: r, detail } => {
            assert_eq!(*r, rank);
            assert!(detail.contains("injected fault"), "detail: {detail}");
        }
        other => panic!("expected WorkerPanicked at rank {rank}, got {other}"),
    }
    // The dead stage never forwarded Shutdown — the old implementation
    // hung here forever. The supervised drain must return the same root
    // cause within its deadline.
    let err = c.shutdown(Duration::from_secs(2)).unwrap_err();
    assert!(
        matches!(err, RuntimeError::WorkerPanicked { rank: r, .. } if r == rank),
        "shutdown after a rank-{rank} panic reported: {err}"
    );
}

#[test]
fn panic_at_first_rank_is_reported_not_hung() {
    with_watchdog("panic rank 0", || panic_scenario(0));
}

#[test]
fn panic_at_middle_rank_is_reported_not_hung() {
    with_watchdog("panic rank 2", || panic_scenario(2));
}

#[test]
fn panic_at_last_rank_is_reported_not_hung() {
    with_watchdog("panic rank 3", || panic_scenario(3));
}

#[test]
fn dropped_message_surfaces_as_bounded_timeout() {
    with_watchdog("drop message", || {
        let world = 4u32;
        let plan = FaultPlan::none().drop_message(1, 3);
        let mut c = Cluster::spawn_with(world, TransferMode::Async, opts(plan, SHORT));
        for id in 0..6u64 {
            c.launch(spec(world, id)).unwrap();
        }
        // Jobs 0..=2 complete; job 3 vanished at rank 1, so the next
        // thing the engine sees is job 4 — at the raw cluster level the
        // lost message shows up as the id skipping ahead.
        for want in [0u64, 1, 2, 4, 5] {
            assert_eq!(c.next_completion(WAIT).unwrap().id, want);
        }
        // Nothing else is coming: the bounded wait must expire with a
        // structured timeout, not block forever.
        let err = c.next_completion(SHORT).unwrap_err();
        assert!(
            matches!(err, RuntimeError::CompletionTimedOut { .. }),
            "got {err}"
        );
        // All workers are still alive; shutdown is clean.
        let logs = c.shutdown(WAIT).unwrap();
        assert_eq!(logs[0].jobs(), 6, "rank 0 saw every job");
        assert_eq!(logs[3].jobs(), 5, "rank 3 never saw the dropped job");
    });
}

#[test]
fn delayed_transfer_shifts_timing_without_failing() {
    with_watchdog("delay transfer", || {
        let world = 3u32;
        let delta = 5.0;
        let baseline = {
            let mut c = Cluster::spawn(world, TransferMode::Async);
            c.launch(spec(world, 0)).unwrap();
            let t = c.next_completion(WAIT).unwrap().finish;
            c.shutdown(WAIT).unwrap();
            t
        };
        let plan = FaultPlan::none().delay_transfer(1, 0, delta);
        let mut c = Cluster::spawn_with(world, TransferMode::Async, opts(plan, WAIT));
        c.launch(spec(world, 0)).unwrap();
        let slowed = c.next_completion(WAIT).unwrap().finish;
        c.shutdown(WAIT).unwrap();
        assert!(
            (slowed - baseline - delta).abs() < 1e-9,
            "empty pipeline: the injected wire delay shifts the finish by exactly Δ \
             (baseline {baseline}, slowed {slowed})"
        );
    });
}

#[test]
fn corrupt_ack_trips_the_protocol_check() {
    with_watchdog("corrupt ack", || {
        let world = 4u32;
        // Rank 2 acks its job 1 with an impossible start time; rank 1
        // (the upstream sender) must detect the violation.
        let plan = FaultPlan::none().corrupt_ack(2, 1);
        let mut c = Cluster::spawn_with(world, TransferMode::Rendezvous, opts(plan, WAIT));
        for id in 0..4u64 {
            c.launch(spec(world, id)).unwrap();
        }
        let err = loop {
            match c.next_completion(WAIT) {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err, RuntimeError::AckProtocolViolation { rank: 1, .. }),
            "got {err}"
        );
        let err = c.shutdown(Duration::from_secs(2)).unwrap_err();
        assert!(
            matches!(err, RuntimeError::AckProtocolViolation { rank: 1, .. }),
            "shutdown reported: {err}"
        );
    });
}

#[test]
fn stalled_worker_cannot_hang_shutdown() {
    with_watchdog("stalled worker", || {
        let world = 4u32;
        let plan = FaultPlan::none().stall_at(2, 0);
        let mut c = Cluster::spawn_with(world, TransferMode::Async, opts(plan, SHORT));
        c.launch(spec(world, 0)).unwrap();
        // The job is wedged inside rank 2: no completion, no exit report.
        let err = c.next_completion(SHORT).unwrap_err();
        assert!(
            matches!(err, RuntimeError::CompletionTimedOut { .. }),
            "got {err}"
        );
        // The old code would join forever here. The bounded drain must
        // give up and name the ranks that never reported. (Rank 2's
        // thread is deliberately leaked — that is the contract.)
        let err = c.shutdown(Duration::from_millis(500)).unwrap_err();
        match err {
            RuntimeError::ShutdownTimedOut { missing, .. } => {
                assert!(missing.contains(&2), "missing ranks: {missing:?}");
            }
            other => panic!("expected ShutdownTimedOut, got {other}"),
        }
    });
}

#[test]
fn faultless_plan_stays_equivalent_to_simulator() {
    with_watchdog("FaultPlan::none equivalence", || {
        use tdpipe::sim::PipelineSim;
        let world = 4u32;
        let mut sim = PipelineSim::new(world, TransferMode::Async, false);
        let mut c = Cluster::spawn_with(
            world,
            TransferMode::Async,
            opts(FaultPlan::none(), WAIT),
        );
        let mut expect = Vec::new();
        for id in 0..100u64 {
            let exec: Vec<f64> = (0..world).map(|s| 0.01 + ((id + s as u64) % 7) as f64 * 0.004).collect();
            let xfer = vec![0.002; world as usize - 1];
            expect.push(sim.launch(0.0, &exec, &xfer, SegmentKind::Decode, id).finish);
            c.launch(JobSpec {
                id,
                ready: 0.0,
                exec,
                xfer,
                kind: SegmentKind::Decode,
            })
            .unwrap();
        }
        for (id, want) in expect.iter().enumerate() {
            let got = c.next_completion(WAIT).unwrap();
            assert_eq!(got.id as usize, id);
            assert!((got.finish - want).abs() < 1e-9);
        }
        c.shutdown(WAIT).unwrap();
    });
}

// ---------------------------------------------------------------------
// Engine-level: the full TD-Pipe scheduling loop over a faulty plane
// observes a clean ExecError — no cascading panic, no hang.
// ---------------------------------------------------------------------

mod engine_level {
    use super::*;
    use tdpipe::core::{TdPipeConfig, TdPipeEngine};
    use tdpipe::hw::NodeSpec;
    use tdpipe::model::ModelSpec;
    use tdpipe::predictor::OraclePredictor;
    use tdpipe::runtime::ThreadedExecutor;
    use tdpipe::workload::{ShareGptLikeConfig, Workload};

    fn engine() -> (TdPipeEngine, TdPipeConfig) {
        let cfg = TdPipeConfig::default();
        let engine = TdPipeEngine::new(
            ModelSpec::llama2_13b(),
            &NodeSpec::l20(4),
            cfg.clone(),
        )
        .unwrap();
        (engine, cfg)
    }

    fn run_with_plan(plan: FaultPlan, completion_timeout: Duration) -> Result<(), ExecErrorKind> {
        let (engine, cfg) = engine();
        let trace = ShareGptLikeConfig::small(80, 42).generate();
        let executor = ThreadedExecutor::spawn_with(
            4,
            cfg.engine.transfer_mode,
            ClusterOptions {
                record_segments: false,
                faults: plan,
                completion_timeout,
                shutdown_deadline: Duration::from_secs(2),
            },
        );
        engine
            .try_run(
                Workload::offline(&trace),
                &OraclePredictor,
                Box::new(executor),
            )
            .map(|_| ())
            .map_err(|e| e.kind)
    }

    #[test]
    fn engine_observes_worker_panic_as_structured_error() {
        let kind = with_watchdog("engine + panic fault", || {
            run_with_plan(FaultPlan::none().panic_at(2, 4), WAIT).unwrap_err()
        });
        assert_eq!(kind, ExecErrorKind::WorkerPanicked);
    }

    #[test]
    fn engine_observes_lost_message_as_structured_error() {
        let kind = with_watchdog("engine + drop fault", || {
            run_with_plan(FaultPlan::none().drop_message(1, 2), SHORT).unwrap_err()
        });
        // A lost message shows up either as an out-of-order completion
        // (protocol violation) or, if it was the last in flight, as a
        // bounded timeout — both structured, neither a hang.
        assert!(
            kind == ExecErrorKind::ProtocolViolation || kind == ExecErrorKind::Timeout,
            "got {kind:?}"
        );
    }

    #[test]
    fn engine_observes_stall_as_structured_error() {
        let kind = with_watchdog("engine + stall fault", || {
            run_with_plan(FaultPlan::none().stall_at(3, 1), SHORT).unwrap_err()
        });
        assert_eq!(kind, ExecErrorKind::Timeout);
    }

    #[test]
    fn engine_with_faultless_plan_matches_simulator() {
        with_watchdog("engine + FaultPlan::none", || {
            use tdpipe::core::exec::SimExecutor;
            let (engine, cfg) = engine();
            let trace = ShareGptLikeConfig::small(80, 42).generate();
            let sim_out = engine
                .try_run(
                    Workload::offline(&trace),
                    &OraclePredictor,
                    Box::new(SimExecutor::new(4, cfg.engine.transfer_mode, false)),
                )
                .expect("the simulator cannot fail");
            let thr_out = engine
                .try_run(
                    Workload::offline(&trace),
                    &OraclePredictor,
                    Box::new(ThreadedExecutor::spawn_with(
                        4,
                        cfg.engine.transfer_mode,
                        ClusterOptions {
                            record_segments: false,
                            faults: FaultPlan::none(),
                            ..ClusterOptions::default()
                        },
                    )),
                )
                .expect("faultless run succeeds");
            assert_eq!(sim_out.report, thr_out.report);
        });
    }
}
