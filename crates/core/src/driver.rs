//! The one run loop every scheduler shares.
//!
//! The paper's §3.2 hierarchy controller puts scheduling policy on a
//! control plane above one shared execution plane; [`drive`] is that split
//! in code. It owns the run state ([`RunState`]), the
//! `launch → completion → complete` loop over a [`PipelineExecutor`], the
//! idle fast-forward to the next arrival, and the outcome assembly. A
//! [`Policy`] decides what to launch and when, and what each completion
//! means: TD-Pipe's phase machine ([`crate::engine`]) and the baselines'
//! lanes (`tdpipe-baselines`).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::unimplemented, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
#![deny(clippy::allow_attributes_without_reason, unfulfilled_lint_expectations)]

use crate::cohort::DecodeStepper;
use crate::engine::{PhaseRecord, RunOutcome};
use crate::exec::{ExecError, PipelineExecutor};
use crate::metrics::EngineMetrics;
use crate::request::RequestPool;
use tdpipe_kvcache::{AllocStats, Blocks, OccupancyTrace, Phase};
use tdpipe_sim::RunReport;
use tdpipe_trace::{EvictMode, FlightRecorder, TraceEvent};
use tdpipe_workload::{Request, Workload};

/// Run-wide state every policy reads and writes.
pub struct RunState<'w> {
    /// Request lifecycle tracker, admission stamps included.
    pub pool: RequestPool<'w>,
    /// The decode step all schedulers share.
    pub stepper: DecodeStepper,
    /// Scheduling decision journal (a no-op unless recording).
    pub journal: FlightRecorder,
    /// Metrics plane (a no-op unless recording).
    pub metrics: EngineMetrics,
    /// Chronological phase log (empty for schedulers without phases).
    pub phases: Vec<PhaseRecord>,
    /// Phase switches journalled so far.
    pub phase_switches: u32,
}

impl<'w> RunState<'w> {
    /// The state for one run over `work`, with `predict` giving each
    /// request's expected output length.
    ///
    /// # Panics
    /// Panics if `work`'s arrivals are misaligned or unsorted, or if it
    /// holds more than `u32::MAX` requests.
    pub fn new(
        work: &Workload<'w>,
        predict: impl FnMut(&Request) -> u32,
        record_trace: bool,
        record_metrics: bool,
    ) -> Self {
        let pool = RequestPool::for_workload(work, predict);
        assert!(u32::try_from(pool.len()).is_ok(), "queues address requests as u32");
        assert!(
            (1..pool.len()).all(|i| pool.arrival(i) >= pool.arrival(i - 1)),
            "arrivals must be sorted"
        );
        let n = pool.len();
        RunState {
            pool,
            stepper: DecodeStepper::new(n),
            // Sized for admit + stop + launch + done + finish per request,
            // plus slack for phase machinery and recompute episodes.
            journal: if record_trace {
                FlightRecorder::with_capacity(n * 8 + 64)
            } else {
                FlightRecorder::disabled()
            },
            metrics: EngineMetrics::new(record_metrics),
            phases: Vec::new(),
            phase_switches: 0,
        }
    }

    /// Emit `event` at `t`: journal it and fold it into the metrics
    /// plane's decision counters.
    pub fn record(&mut self, t: f64, event: TraceEvent) {
        self.metrics.observe(&event);
        self.journal.record(t, event);
    }

    /// Log a finished phase and, unless the run is over, journal and count
    /// the switch to the other phase.
    pub fn end_phase(&mut self, record: PhaseRecord) {
        self.phases.push(record);
        if !self.pool.all_finished() {
            self.phase_switches += 1;
            let from = record.phase;
            let to = if from == Phase::Prefill { Phase::Decode } else { Phase::Prefill };
            self.record(record.end, TraceEvent::PhaseSwitch { from, to });
        }
    }
}

/// What blocks a policy with nothing in flight that cannot launch.
pub struct Stall {
    /// An arrived pending request that an empty memory refused:
    /// `(pool index, tokens, capacity in tokens)`.
    pub oversize: Option<(usize, u64, u64)>,
    /// Earliest arrival among pending requests (`+inf` when none).
    pub next_arrival: f64,
}

/// A policy's share of the run's outcome: the report's scheduler name,
/// the KV occupancy trace, allocator statistics and KV blocks over every
/// KV pool, and how the run's evictions ([`DecodeStepper::evictions`])
/// preempted.
pub struct Close {
    pub scheduler: String,
    pub occupancy: OccupancyTrace,
    pub alloc: AllocStats,
    pub kv_blocks: Blocks,
    pub evict_mode: EvictMode,
    /// The high-water spans of the policy's windows (the driver fills in
    /// the pool's).
    pub windows: WindowSpans,
}

/// The most request ids each of a run's id-indexed windows ever spanned:
/// the peak size, in entries, of its per-request run state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSpans {
    /// The request pool's live records.
    pub pool: usize,
    /// The KV allocator's residency table (the widest, over a policy's
    /// pools).
    pub kv: usize,
    /// The §3.3 planner's tracking table (0 without a planner).
    pub planner: usize,
}

/// A scheduler on the shared loop. The policy sets every launch time and
/// keeps its own clock.
pub trait Policy {
    /// Launch whatever can start at `now`; returns the clock.
    fn launch(&mut self, run: &mut RunState, plane: &mut dyn PipelineExecutor, now: f64) -> f64;

    /// The job tagged `tag` finished at `finish`; returns the clock.
    fn complete(
        &mut self,
        run: &mut RunState,
        plane: &mut dyn PipelineExecutor,
        tag: u64,
        finish: f64,
        now: f64,
    ) -> f64;

    /// Nothing is in flight or launchable and requests remain: report what
    /// blocks them. Called right before the clock jumps.
    fn stall(&mut self, run: &RunState, now: f64) -> Stall;

    /// The run is over: hand back the policy's share of the outcome.
    fn close(self, run: &mut RunState) -> Close;
}

/// Run `policy` to completion on `plane`, starting the clock at `now`.
///
/// # Panics
/// Panics when some request cannot fit in KV memory even alone, or when
/// pending requests remain that will never arrive.
pub fn drive<P: Policy>(
    mut policy: P,
    mut run: RunState<'_>,
    mut plane: Box<dyn PipelineExecutor>,
    mut now: f64,
) -> Result<RunOutcome, ExecError> {
    loop {
        now = policy.launch(&mut run, plane.as_mut(), now);
        if plane.outstanding() == 0 {
            if run.pool.all_finished() {
                break;
            }
            now = idle_advance(policy.stall(&run, now), &mut run, now);
            continue;
        }
        let (tag, finish) = plane.try_next_completion()?;
        now = policy.complete(&mut run, plane.as_mut(), tag, finish, now);
    }
    run.pool.assert_conserved();
    let close = policy.close(&mut run);
    run.metrics.on_evictions(close.evict_mode, run.stepper.evictions);
    let plane_stats = plane.plane_stats();
    let (makespan, timeline) = plane.try_finish()?;
    // Device tracks for the Chrome export (only when the executor kept
    // segments). Bounded: warm-up and drain idleness become explicit
    // StageIdle events, so attributed bubble seconds close against the
    // makespan.
    run.journal.append_stage_events(&timeline, makespan);
    let windows = WindowSpans {
        pool: run.pool.window_high_water(),
        ..close.windows
    };
    let pool = run.pool;
    let report = RunReport {
        scheduler: close.scheduler,
        makespan,
        num_requests: pool.len(),
        input_tokens: pool.input_tokens,
        output_tokens: pool.output_tokens,
        recomputed_tokens: pool.recomputed_tokens,
        swapped_tokens: pool.swapped_tokens,
        phase_switches: run.phase_switches,
        mean_utilization: timeline.mean_utilization(),
        latency: pool.latency_summary(),
    };
    let metrics = run.metrics.finish(
        &report,
        &run.phases,
        close.alloc,
        close.kv_blocks,
        &timeline,
        plane_stats,
    );
    // The log grew by doubling; hand it back at its exact size.
    run.phases.shrink_to_fit();
    Ok(RunOutcome {
        report,
        timeline,
        occupancy: close.occupancy,
        phases: run.phases,
        journal: run.journal,
        metrics,
        windows,
    })
}

/// Jump the idle clock to the earliest pending arrival, journalled as
/// declared arrival starvation: the bubble ledger attributes every
/// device's idleness over the jump to arrivals.
///
/// # Panics
/// Panics when an arrived request could not be admitted into an empty
/// memory (it never fits), and when no pending request will ever arrive —
/// either way the clock cannot advance.
fn idle_advance(stall: Stall, run: &mut RunState, now: f64) -> f64 {
    let pool = &run.pool;
    #[expect(clippy::panic, reason = "unschedulable input (one request larger than the whole KV \
        pool): a precondition documented under `# Panics` on every engine entry point, not a \
        runtime failure")]
    if let Some((idx, tokens, capacity)) = stall.oversize {
        panic!(
            "request {} ({tokens} tokens) exceeds KV capacity ({capacity} tokens)",
            pool.id(idx)
        );
    }
    let until = stall.next_arrival;
    assert!(
        until.is_finite() && until > now,
        "stuck: nothing runnable, nothing arriving (next_arrival={until}, now={now}, \
         finished={}/{})",
        pool.finished(),
        pool.len()
    );
    run.record(now, TraceEvent::ArrivalWait { until });
    until
}
