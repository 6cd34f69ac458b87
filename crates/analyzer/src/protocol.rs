//! Bounded model checker for the cluster ↔ worker supervision protocol.
//!
//! [`crates/runtime`] implements the hierarchy-controller as an engine
//! plus a chain of stage workers joined by channels: jobs flow down the
//! chain, completions return from the last stage, every worker reports
//! exactly one `WorkerExit` on a supervision channel after dropping its
//! endpoints, and injected faults (panic / drop / stall / corrupt-ack)
//! must surface as ranked `RuntimeError`s rather than hangs.
//!
//! That protocol is re-stated here as an explicit finite state machine —
//! message queues and worker phases, no threads, no time — and checked
//! by exhaustive breadth-first search over **all** interleavings of
//! small configurations (≤3 stages × ≤3 jobs). Machine-checked
//! properties:
//!
//! 1. **No deadlock**: every reachable terminal state is an engine
//!    `Done` state (timeouts count as progress, but fire only at
//!    *quiescence* — when nothing else in the whole system can move —
//!    which models "the timeout is generous relative to real work").
//! 2. **Exactly one `WorkerExit` per rank per path** — never zero on an
//!    orderly drain, never two.
//! 3. **No completion is consumed after shutdown begins** (in
//!    particular, none after a `ShutdownTimedOut`).
//! 4. A drain timeout (missing exit reports) is reachable **only** under
//!    a stall fault, and every missing rank genuinely never reported.
//!
//! To show the checker can actually *fail*, [`Mutation`] knobs re-inject
//! protocol bugs (double exit reports, unbounded shutdown waits, reading
//! completions during drain); tests assert each one is caught.
//!
//! Modeling notes, kept deliberately aligned with `crates/runtime`:
//!
//! - `TransferMode::Blocking` differs from `Async` only in the virtual
//!   clock, not in message order, so the model checks `Async` and
//!   `Rendezvous` (which adds the start-ack handshake).
//! - `SUPERVISION_GRACE` is assumed sufficient: a worker whose dropped
//!   endpoints are observable has causally already queued its exit
//!   report, so "settling a root cause" drains the supervision queue
//!   synchronously.
//! - Virtual timestamps are abstracted away; a corrupt ack is a tagged
//!   message rather than an impossible `started` time.

use crate::explore::{explore, Step};
use std::collections::{BTreeSet, VecDeque};

pub use crate::explore::Violation;

/// Transfer mode, as far as message order is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    /// Fire-and-forget forwarding (also covers `Blocking`).
    Async,
    /// Downstream acks on accept; the sender waits for the ack.
    Rendezvous,
}

/// Injected fault, mirroring `runtime::FaultPlan`. `job` indexes the
/// k-th job *processed by that rank*, as in the real plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fault {
    /// No fault.
    None,
    /// Rank panics while processing its `job`-th job.
    Panic { rank: u8, job: u8 },
    /// Rank silently drops its `job`-th job (no forward, no completion).
    Drop { rank: u8, job: u8 },
    /// Rank wedges forever on accepting its `job`-th job, holding its
    /// channel endpoints (the fault the bounded drain exists for).
    Stall { rank: u8, job: u8 },
    /// Rendezvous only: rank acks its `job`-th job with an impossible
    /// start time; the upstream sender must flag a protocol violation.
    CorruptAck { rank: u8, job: u8 },
}

/// Deliberately re-introduced protocol bugs, proving the checker is not
/// vacuous: each mutation must produce a counterexample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mutation {
    /// The faithful protocol.
    None,
    /// The shutdown drain waits forever instead of timing out.
    UnboundedShutdown,
    /// Workers send their exit report twice.
    DoubleExit,
    /// The engine keeps consuming completions after shutdown begins.
    LeakCompletions,
}

/// One model configuration.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Pipeline depth (number of stage workers), 1..=3 in the tests.
    pub world: u8,
    /// Jobs the engine launches, 0..=3 in the tests.
    pub jobs: u8,
    /// Message-order mode.
    pub mode: Mode,
    /// Injected fault.
    pub fault: Fault,
    /// Protocol bug to re-introduce (for negative tests).
    pub mutation: Mutation,
}

/// Failure classification, ordered by severity exactly as
/// `RuntimeError::severity`: a panic outranks a protocol violation
/// outranks a bare disconnect outranks the timeouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ErrKind {
    /// Engine gave up waiting for a completion.
    CompletionTimedOut,
    /// Shutdown drain gave up waiting for exit reports.
    ShutdownTimedOut,
    /// A channel endpoint vanished without a shutdown.
    Disconnected,
    /// Out-of-order completion or corrupt start-ack.
    ProtocolViolation,
    /// A worker panicked.
    Panicked,
}

/// A message in a stage inbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Msg {
    Job(u8),
    Shutdown,
}

/// A start-ack travelling upstream (rendezvous mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ack {
    corrupt: bool,
}

/// A stage worker's phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum WState {
    /// Blocked on (or able to read) its inbox.
    Running,
    /// Rendezvous sender waiting for the downstream start-ack.
    AwaitAck,
    /// Wedged forever, endpoints held open.
    Stalled,
    /// Gone; endpoints dropped, exit report(s) sent.
    Exited,
}

/// The engine's phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    /// Launched `0..n` jobs so far.
    Launching(u8),
    /// All jobs launched; consumed `0..n` completions.
    Awaiting(u8),
    /// Shutdown sent; reaping exit reports.
    Draining,
    /// Terminal. `timed_out` records whether the drain gave up.
    Done { err: Option<ErrKind>, timed_out: bool },
}

/// One global state of the model.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct State {
    phase: Phase,
    /// Sticky first error the engine observed (the one `run()` returns).
    engine_err: Option<ErrKind>,
    /// Engine's job sender into rank 0 still open.
    to_first_open: bool,
    /// Per-rank stage inbox.
    inboxes: Vec<VecDeque<Msg>>,
    /// `acks[r]`: start-acks readable by rank `r` (sent by rank `r+1`).
    acks: Vec<VecDeque<Ack>>,
    /// Completion stream from the last rank to the engine.
    completions: VecDeque<u8>,
    workers: Vec<WState>,
    /// Jobs accepted so far per rank (fault indexing).
    processed: Vec<u8>,
    /// Supervision channel: (rank, outcome) exit reports in flight.
    sup: VecDeque<(u8, Option<ErrKind>)>,
    /// Exit reports each rank has *sent* (property: exactly one).
    exit_sent: Vec<u8>,
    /// Exit reports the engine has received, per rank.
    drained: Vec<bool>,
    /// Worst error among received exit reports.
    drained_worst: Option<ErrKind>,
}

/// What an exhaustive check of one scenario found.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Distinct states explored.
    pub states: usize,
    /// Every terminal outcome reachable by some interleaving.
    pub outcomes: BTreeSet<Option<ErrKind>>,
    /// Terminal states reached via a shutdown-drain timeout.
    pub drain_timeouts: usize,
}

fn initial(sc: &Scenario) -> State {
    let w = sc.world as usize;
    State {
        phase: if sc.jobs == 0 {
            Phase::Awaiting(0)
        } else {
            Phase::Launching(0)
        },
        engine_err: None,
        to_first_open: true,
        inboxes: vec![VecDeque::new(); w],
        acks: vec![VecDeque::new(); w],
        completions: VecDeque::new(),
        workers: vec![WState::Running; w],
        processed: vec![0; w],
        sup: VecDeque::new(),
        exit_sent: vec![0; w],
        drained: vec![false; w],
        drained_worst: None,
    }
}

/// Record a worker exit: drop endpoints, send the report(s).
fn exit(sc: &Scenario, s: &mut State, r: usize, outcome: Option<ErrKind>) -> Option<String> {
    s.workers[r] = WState::Exited;
    let sends = if sc.mutation == Mutation::DoubleExit { 2 } else { 1 };
    for _ in 0..sends {
        s.sup.push_back((r as u8, outcome));
        s.exit_sent[r] += 1;
    }
    if s.exit_sent[r] > 1 {
        Some(format!(
            "rank {r} sent {} WorkerExit reports (exactly one required)",
            s.exit_sent[r]
        ))
    } else {
        None
    }
}

/// Drain every queued exit report into the engine's books. Models
/// `settled_root_cause` under the assumption that `SUPERVISION_GRACE`
/// always suffices: an observable endpoint drop means the report is
/// already causally in flight.
fn settle_drain(s: &mut State) {
    while let Some((rank, outcome)) = s.sup.pop_front() {
        s.drained[rank as usize] = true;
        if let Some(e) = outcome {
            s.drained_worst = Some(s.drained_worst.map_or(e, |w| w.max(e)));
        }
    }
}

/// Begin shutdown: send `Shutdown` to rank 0 if it still has a receiver,
/// then drop the engine's job sender. When a preceding `settle_drain`
/// already reaped every exit report there is nothing left to wait for.
fn enter_draining(s: &mut State) {
    if s.workers[0] != WState::Exited {
        s.inboxes[0].push_back(Msg::Shutdown);
    }
    s.to_first_open = false;
    s.phase = if s.sup.is_empty() && s.drained.iter().all(|d| *d) {
        Phase::Done {
            err: s.engine_err.or(s.drained_worst),
            timed_out: false,
        }
    } else {
        Phase::Draining
    };
}

fn engine_steps(sc: &Scenario, s: &State, out: &mut Vec<Step<State>>) {
    match s.phase {
        Phase::Launching(next) => {
            let mut t = s.clone();
            if s.workers[0] == WState::Exited {
                // The send fails; settle a root cause and shut down.
                settle_drain(&mut t);
                t.engine_err = Some(t.drained_worst.unwrap_or(ErrKind::Disconnected));
                enter_draining(&mut t);
                out.push((format!("engine: launch of job {next} fails (rank 0 gone)"), t, None));
            } else {
                t.inboxes[0].push_back(Msg::Job(next));
                t.phase = if next + 1 == sc.jobs {
                    Phase::Awaiting(0)
                } else {
                    Phase::Launching(next + 1)
                };
                out.push((format!("engine: launch job {next}"), t, None));
            }
        }
        Phase::Awaiting(consumed) => {
            if consumed == sc.jobs {
                let mut t = s.clone();
                enter_draining(&mut t);
                out.push(("engine: all jobs done, begin shutdown".to_string(), t, None));
            } else if let Some(&id) = s.completions.front() {
                let mut t = s.clone();
                t.completions.pop_front();
                if id == consumed {
                    t.phase = Phase::Awaiting(consumed + 1);
                    out.push((format!("engine: consume completion {id}"), t, None));
                } else {
                    t.engine_err = Some(ErrKind::ProtocolViolation);
                    enter_draining(&mut t);
                    out.push((
                        format!("engine: out-of-order completion {id} (expected {consumed})"),
                        t,
                        None,
                    ));
                }
            } else if s.workers[sc.world as usize - 1] == WState::Exited {
                // Completion stream disconnected with nothing buffered.
                let mut t = s.clone();
                settle_drain(&mut t);
                t.engine_err = Some(t.drained_worst.unwrap_or(ErrKind::Disconnected));
                enter_draining(&mut t);
                out.push(("engine: completion stream disconnected".to_string(), t, None));
            }
        }
        Phase::Draining => {
            if let Some(&(rank, outcome)) = s.sup.front() {
                let mut t = s.clone();
                t.sup.pop_front();
                t.drained[rank as usize] = true;
                if let Some(e) = outcome {
                    t.drained_worst = Some(t.drained_worst.map_or(e, |w| w.max(e)));
                }
                if t.drained.iter().all(|d| *d) {
                    t.phase = Phase::Done {
                        err: t.engine_err.or(t.drained_worst),
                        timed_out: false,
                    };
                }
                out.push((format!("engine: reap exit report from rank {rank}"), t, None));
            }
            if sc.mutation == Mutation::LeakCompletions {
                if let Some(&id) = s.completions.front() {
                    let mut t = s.clone();
                    t.completions.pop_front();
                    out.push((
                        format!("engine: consume completion {id} during drain"),
                        t,
                        Some(format!(
                            "completion {id} consumed after shutdown began"
                        )),
                    ));
                }
            }
        }
        Phase::Done { .. } => {}
    }
}

fn worker_steps(sc: &Scenario, s: &State, r: usize, out: &mut Vec<Step<State>>) {
    let world = sc.world as usize;
    let last = r == world - 1;
    match s.workers[r] {
        WState::Stalled | WState::Exited => {}
        WState::AwaitAck => {
            if let Some(&ack) = s.acks[r].front() {
                let mut t = s.clone();
                t.acks[r].pop_front();
                if ack.corrupt {
                    let v = exit(sc, &mut t, r, Some(ErrKind::ProtocolViolation));
                    out.push((format!("w{r}: corrupt start-ack, exits"), t, v));
                } else {
                    t.workers[r] = WState::Running;
                    out.push((format!("w{r}: start-ack received"), t, None));
                }
            } else if s.workers[r + 1] == WState::Exited {
                let mut t = s.clone();
                let v = exit(sc, &mut t, r, Some(ErrKind::Disconnected));
                out.push((format!("w{r}: downstream died before acking"), t, v));
            }
        }
        WState::Running => {
            if let Some(&msg) = s.inboxes[r].front() {
                let mut t = s.clone();
                t.inboxes[r].pop_front();
                match msg {
                    Msg::Shutdown => {
                        if !last && t.workers[r + 1] == WState::Exited {
                            let v = exit(sc, &mut t, r, Some(ErrKind::Disconnected));
                            out.push((format!("w{r}: downstream gone during shutdown"), t, v));
                        } else {
                            if !last {
                                t.inboxes[r + 1].push_back(Msg::Shutdown);
                            }
                            let v = exit(sc, &mut t, r, None);
                            out.push((format!("w{r}: shutdown forwarded, exits cleanly"), t, v));
                        }
                    }
                    Msg::Job(id) => {
                        let k = t.processed[r];
                        t.processed[r] += 1;
                        let hit = |f: Fault| match f {
                            Fault::Stall { rank, job }
                            | Fault::Panic { rank, job }
                            | Fault::Drop { rank, job }
                            | Fault::CorruptAck { rank, job } => {
                                rank as usize == r && job == k
                            }
                            Fault::None => false,
                        };
                        let fires = hit(sc.fault);
                        if fires && matches!(sc.fault, Fault::Stall { .. }) {
                            t.workers[r] = WState::Stalled;
                            out.push((format!("w{r}: stalls on job {id}"), t, None));
                            return;
                        }
                        if fires && matches!(sc.fault, Fault::Panic { .. }) {
                            let v = exit(sc, &mut t, r, Some(ErrKind::Panicked));
                            out.push((format!("w{r}: panics on job {id}"), t, v));
                            return;
                        }
                        // Rendezvous: ack the upstream sender on accept.
                        if sc.mode == Mode::Rendezvous && r > 0 {
                            if t.workers[r - 1] == WState::Exited {
                                let v = exit(sc, &mut t, r, Some(ErrKind::Disconnected));
                                out.push((format!("w{r}: ack listener gone"), t, v));
                                return;
                            }
                            let corrupt = fires && matches!(sc.fault, Fault::CorruptAck { .. });
                            t.acks[r - 1].push_back(Ack { corrupt });
                        }
                        let dropped = fires && matches!(sc.fault, Fault::Drop { .. });
                        if last {
                            if !dropped {
                                t.completions.push_back(id);
                            }
                            out.push((format!("w{r}: complete job {id}"), t, None));
                        } else if dropped {
                            out.push((format!("w{r}: drops job {id}"), t, None));
                        } else if t.workers[r + 1] == WState::Exited {
                            let v = exit(sc, &mut t, r, Some(ErrKind::Disconnected));
                            out.push((format!("w{r}: downstream gone, exits"), t, v));
                        } else {
                            t.inboxes[r + 1].push_back(Msg::Job(id));
                            if sc.mode == Mode::Rendezvous {
                                t.workers[r] = WState::AwaitAck;
                            }
                            out.push((format!("w{r}: forward job {id}"), t, None));
                        }
                    }
                }
            } else {
                // Empty inbox: a `recv` would return only if the sender
                // side is gone (engine dropped it / upstream exited).
                let upstream_gone = if r == 0 {
                    !s.to_first_open
                } else {
                    s.workers[r - 1] == WState::Exited
                };
                if upstream_gone {
                    let mut t = s.clone();
                    let v = exit(sc, &mut t, r, Some(ErrKind::Disconnected));
                    out.push((format!("w{r}: inbox closed before shutdown"), t, v));
                }
            }
        }
    }
}

/// Timeout transitions, enabled only at quiescence (no other transition
/// anywhere) — the model's statement that real timeouts are generous.
fn timeout_steps(sc: &Scenario, s: &State, out: &mut Vec<Step<State>>) {
    match s.phase {
        Phase::Awaiting(consumed) if consumed < sc.jobs && s.completions.is_empty() => {
            let mut t = s.clone();
            settle_drain(&mut t);
            t.engine_err = Some(t.drained_worst.unwrap_or(ErrKind::CompletionTimedOut));
            enter_draining(&mut t);
            out.push(("engine: completion wait times out".to_string(), t, None));
        }
        Phase::Draining if sc.mutation != Mutation::UnboundedShutdown => {
            let missing: Vec<usize> =
                (0..sc.world as usize).filter(|&r| !s.drained[r]).collect();
            if missing.is_empty() {
                return;
            }
            let mut t = s.clone();
            let mut violation = None;
            for &r in &missing {
                if t.exit_sent[r] > 0 {
                    violation = Some(format!(
                        "drain timed out while rank {r}'s sent exit report was dropped"
                    ));
                }
            }
            t.phase = Phase::Done {
                err: Some(t.engine_err.unwrap_or(ErrKind::ShutdownTimedOut)),
                timed_out: true,
            };
            out.push((
                format!("engine: shutdown drain times out (missing ranks {missing:?})"),
                t,
                violation,
            ));
        }
        _ => {}
    }
}

fn successors(sc: &Scenario, s: &State) -> Vec<Step<State>> {
    let mut out = Vec::new();
    engine_steps(sc, s, &mut out);
    for r in 0..sc.world as usize {
        worker_steps(sc, s, r, &mut out);
    }
    if out.is_empty() {
        timeout_steps(sc, s, &mut out);
    }
    out
}

/// Exhaustively check one scenario over all interleavings.
pub fn check(sc: &Scenario) -> Result<Summary, Violation> {
    assert!(sc.world >= 1, "need at least one stage");
    let mut outcomes = BTreeSet::new();
    let mut drain_timeouts = 0usize;
    let terminal = |s: &State| {
        let Phase::Done { err, timed_out } = s.phase else {
            return None;
        };
        if timed_out {
            drain_timeouts += 1;
            if !matches!(sc.fault, Fault::Stall { .. }) {
                return Some(Err(format!(
                    "shutdown drain timed out without a stall fault ({:?})",
                    sc.fault
                )));
            }
        } else if let Some(r) = (0..sc.world as usize).find(|&r| s.exit_sent[r] != 1) {
            return Some(Err(format!(
                "orderly drain finished but rank {r} sent {} exit report(s)",
                s.exit_sent[r]
            )));
        }
        outcomes.insert(err);
        Some(Ok(()))
    };
    let states = explore(
        initial(sc),
        "deadlock: no transition enabled and engine not Done",
        |s| successors(sc, s),
        terminal,
        |_| {},
    )?;
    Ok(Summary {
        states,
        outcomes,
        drain_timeouts,
    })
}

/// Every faithful-protocol scenario in the bounded range: all pipeline
/// depths, job counts, both message modes, and every fault placement.
pub fn all_scenarios(max_world: u8, max_jobs: u8) -> Vec<Scenario> {
    let mut out = Vec::new();
    for world in 1..=max_world {
        for jobs in 0..=max_jobs {
            for mode in [Mode::Async, Mode::Rendezvous] {
                let mut faults = vec![Fault::None];
                for rank in 0..world {
                    for job in 0..jobs {
                        faults.push(Fault::Panic { rank, job });
                        faults.push(Fault::Drop { rank, job });
                        faults.push(Fault::Stall { rank, job });
                        if mode == Mode::Rendezvous && rank > 0 {
                            faults.push(Fault::CorruptAck { rank, job });
                        }
                    }
                }
                for fault in faults {
                    out.push(Scenario {
                        world,
                        jobs,
                        mode,
                        fault,
                        mutation: Mutation::None,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc(world: u8, jobs: u8, mode: Mode, fault: Fault, mutation: Mutation) -> Scenario {
        Scenario { world, jobs, mode, fault, mutation }
    }

    #[test]
    fn fault_free_paths_all_succeed() {
        for mode in [Mode::Async, Mode::Rendezvous] {
            let s = check(&sc(2, 2, mode, Fault::None, Mutation::None))
                .unwrap_or_else(|v| panic!("{v}"));
            assert_eq!(s.outcomes.iter().collect::<Vec<_>>(), vec![&None]);
            assert_eq!(s.drain_timeouts, 0);
        }
    }

    #[test]
    fn panic_surfaces_as_worst_cause() {
        let s = check(&sc(3, 2, Mode::Async, Fault::Panic { rank: 1, job: 0 }, Mutation::None))
            .unwrap_or_else(|v| panic!("{v}"));
        // Every interleaving must end in an error, and at least one path
        // must pin the panic as the root cause.
        assert!(!s.outcomes.contains(&None));
        assert!(s.outcomes.contains(&Some(ErrKind::Panicked)), "{:?}", s.outcomes);
    }

    #[test]
    fn stall_is_the_only_source_of_drain_timeouts() {
        let s = check(&sc(2, 2, Mode::Async, Fault::Stall { rank: 0, job: 1 }, Mutation::None))
            .unwrap_or_else(|v| panic!("{v}"));
        assert!(s.drain_timeouts > 0);
    }

    #[test]
    fn corrupt_ack_is_flagged_by_upstream() {
        let s = check(&sc(
            2,
            1,
            Mode::Rendezvous,
            Fault::CorruptAck { rank: 1, job: 0 },
            Mutation::None,
        ))
        .unwrap_or_else(|v| panic!("{v}"));
        assert!(s.outcomes.contains(&Some(ErrKind::ProtocolViolation)), "{:?}", s.outcomes);
    }

    #[test]
    fn double_exit_mutation_is_caught() {
        let v = check(&sc(1, 0, Mode::Async, Fault::None, Mutation::DoubleExit))
            .expect_err("double exit must be flagged");
        assert!(v.message.contains("WorkerExit"), "{v}");
        assert!(!v.trace.is_empty());
    }

    #[test]
    fn unbounded_shutdown_mutation_deadlocks() {
        let v = check(&sc(
            2,
            1,
            Mode::Async,
            Fault::Stall { rank: 0, job: 0 },
            Mutation::UnboundedShutdown,
        ))
        .expect_err("missing timeout must deadlock");
        assert!(v.message.contains("deadlock"), "{v}");
    }

    #[test]
    fn leaked_completion_mutation_is_caught() {
        let v = check(&sc(
            1,
            3,
            Mode::Async,
            Fault::Drop { rank: 0, job: 0 },
            Mutation::LeakCompletions,
        ))
        .expect_err("completion after shutdown must be flagged");
        assert!(v.message.contains("after shutdown"), "{v}");
    }
}
