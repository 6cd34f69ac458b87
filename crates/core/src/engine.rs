//! The TD-Pipe engine: temporally-disaggregated phase scheduling over the
//! pipeline simulator.
//!
//! One run alternates long prefill-only and decode-only phases:
//!
//! * **Prefill phase** — prompt batches are packed up to a token budget and
//!   streamed back-to-back into the pipeline (no inter-batch dependencies,
//!   so the pipe stays full). After every launched batch, Algorithm 1
//!   simulates the future KV usage and decides whether to keep going; see
//!   [`crate::greedy`].
//! * **Decode phase** — resident requests are partitioned into
//!   `num_stages` batches that chase each other through the pipeline; each
//!   time a batch returns, finished requests are retired, the KV cache is
//!   extended, the work stealer rebalances (see [`crate::steal`]), and the
//!   spatial-temporal comparison decides whether to switch back to prefill
//!   (see [`crate::intensity`]).
//!
//! The two phases are a [`Policy`] on the run loop every scheduler shares
//! ([`crate::driver`]). The phase-switch bubble the paper talks about is
//! not modelled — it *emerges*: the first decode batches are issued on the
//! control clock right after the prefill launches, queue behind the last
//! prefill jobs at every stage, and the FIFO recurrence of
//! [`tdpipe_sim::PipelineSim`] produces exactly the idle gaps a real
//! pipeline would show.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]
#![deny(clippy::unimplemented, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
#![deny(clippy::allow_attributes_without_reason, unfulfilled_lint_expectations)]

use crate::batch::{even_range, partition_even_into, DecodeBatch};
use crate::cohort::{DecodeCohort, DecodeStepper, StepEnv, StepHooks};
use crate::config::{
    future_points, D2pPolicy, P2dPolicy, PreemptionMode, TdPipeConfig, BLOCK_SIZE, ENGINE_OVERHEAD,
    HOST_LINK_BW, PREFILL_TOKEN_BUDGET, WATERMARK,
};
use crate::cost::{PpCost, StagedJob};
use crate::driver::{drive, Close, Policy, RunState, Stall, WindowSpans};
use crate::estimate::{PrefillEstimateCache, Queue};
use crate::exec::{ExecError, PipelineExecutor, SimExecutor};
use crate::greedy::GreedyPrefillPlanner;
use crate::intensity::{IntensityComparator, PrefillPhaseEstimate};
use crate::plan::MemoryPlan;
use crate::request::{queued, Lifecycle, RequestPool};
use crate::steal::WorkStealer;
use std::collections::VecDeque;
use tdpipe_hw::{DecodeProfile, NodeSpec};
use tdpipe_kvcache::{
    used_fraction, BlockAllocator, Blocks, OccupancyTrace, Phase, SessionEvent, SessionKv,
};
use tdpipe_metrics::MetricsSnapshot;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::OutputLenPredictor;
use tdpipe_sim::{RunReport, SegmentKind, Timeline};
use tdpipe_trace::{AdmitReason, EvictMode, FlightRecorder, PrefillStopReason, TraceEvent};
use tdpipe_workload::{Trace, Workload};

/// A model/node combination whose weights do not fit the devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfeasibleConfig {
    /// Human-readable description of the failing combination.
    pub reason: String,
}

impl std::fmt::Display for InfeasibleConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "infeasible configuration: {}", self.reason)
    }
}

impl std::error::Error for InfeasibleConfig {}

/// Summary of one engine phase (for diagnostics and Fig. 12 analysis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseRecord {
    /// Prefill or decode.
    pub phase: Phase,
    /// Engine time the phase began.
    pub start: f64,
    /// Engine time the phase ended.
    pub end: f64,
    /// Prefill: requests admitted. Decode: batch-steps executed.
    pub work_items: u64,
    /// Requests finished during the phase.
    pub finished: usize,
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Aggregate metrics (throughput, utilization, switches, …).
    pub report: RunReport,
    /// Per-device activity log (empty unless `record_timeline`).
    pub timeline: Timeline,
    /// KV occupancy over time (paper Fig. 12): every sample when
    /// `record_metrics`, otherwise only the peak (`samples()` is empty).
    pub occupancy: OccupancyTrace,
    /// Chronological phase log.
    pub phases: Vec<PhaseRecord>,
    /// Scheduling decision journal (disabled unless `record_trace`).
    pub journal: FlightRecorder,
    /// Metrics-plane snapshot (empty unless `record_metrics`).
    pub metrics: MetricsSnapshot,
    /// How many request ids each per-request table ever spanned.
    pub windows: WindowSpans,
}

/// Closed-loop session state threaded through one engine run (only for
/// session workloads, whole or a fleet share; `None` keeps open-loop runs
/// bit-identical). The retained KV itself is the run's [`SessionKv`].
struct SessionRun<'a> {
    /// The sessions, whose turn linkage is parallel to the request pool.
    work: Workload<'a>,
    /// Resumed turns admitted with no retained prefix (full prefill).
    reuse_misses: u64,
}

/// The journal record of a session-KV transition.
fn session_event(e: SessionEvent) -> TraceEvent {
    match e {
        SessionEvent::Retain { successor: request, tokens } => {
            TraceEvent::SessionRetain { request, tokens }
        }
        SessionEvent::Drop { successor: request, tokens } => {
            TraceEvent::SessionDrop { request, tokens }
        }
    }
}

/// Release session successor `succ`, which arrives at `at` (its
/// predecessor finished at `now`, plus think time): move it from the
/// unreleased turns to its slot among the pending future arrivals (the
/// layout is on [`TdRun::pending`]). A binary search over the unreleased
/// turns finds it, near their front, and another its slot: after every
/// pending request arriving at or before `at`, where a back-to-front walk
/// would put it, ties included.
fn release(
    pending: &mut VecDeque<u32>,
    unreleased: &mut VecDeque<u32>,
    pool: &mut RequestPool,
    succ: usize,
    at: f64,
    now: f64,
    work: &mut QueueWork,
) {
    debug_assert!(at >= now, "a successor arrives after its predecessor finished");
    debug_assert!(
        pending_layout_holds(pending, unreleased, pool, now),
        "pending queue layout broken"
    );
    let mut probes = 0;
    let entry = queued(succ);
    let from = unreleased.binary_search_by(|&i| {
        probes += 1;
        i.cmp(&entry)
    });
    debug_assert_eq!(
        from.ok(),
        unreleased.iter().position(|&i| i == entry),
        "binary search disagrees with the linear walk on the successor"
    );
    #[expect(clippy::expect_used, reason = "unreleased turns are never admitted (their arrival is \
        infinite), so the successor is still unreleased")]
    let from = from.expect("unreleased turn pending");
    unreleased.remove(from);
    pool.set_arrival(succ, at);
    // The head arrived by `now <= at` and the rest ascends by arrival, so
    // `arrival <= at` partitions the queue.
    let to = pending.partition_point(|&i| {
        probes += 1;
        pool.arrival(i as usize) <= at
    });
    let later = pending.iter().rev().take_while(|&&i| pool.arrival(i as usize) > at);
    debug_assert_eq!(
        to,
        pending.len() - later.count(),
        "binary search disagrees with the linear walk on the successor's slot"
    );
    pending.insert(to, entry);
    work.releases += 1;
    work.release_probes += probes;
}

/// The queue's head: the first pending request, else the first unreleased
/// turn.
fn queue_head(pending: &VecDeque<u32>, unreleased: &VecDeque<u32>) -> Option<usize> {
    pending.front().or(unreleased.front()).map(|&i| i as usize)
}

/// Whether the queue has its layout at time `now` (see [`TdRun::pending`]):
/// every pending arrival is finite and, from the first request still to
/// arrive on, ascends; every unreleased turn's is infinite, and they
/// ascend by request index.
fn pending_layout_holds(
    pending: &VecDeque<u32>,
    unreleased: &VecDeque<u32>,
    pool: &RequestPool,
    now: f64,
) -> bool {
    let arrival = |&i: &u32| pool.arrival(i as usize);
    let future = pending.iter().map(arrival).skip_while(|&a| a <= now);
    pending.iter().map(arrival).all(f64::is_finite)
        && future.clone().zip(future.skip(1)).all(|(a, b)| a <= b)
        && unreleased.iter().map(arrival).all(|a| a == f64::INFINITY)
        && unreleased
            .iter()
            .zip(unreleased.iter().skip(1))
            .all(|(a, b)| a < b)
}

/// TD-Pipe's side of the shared decode step
/// ([`crate::cohort::DecodeStepper::step`]): finishers may retain their KV
/// for a session successor, idle retained prefixes yield before any live
/// member is evicted, victims follow the configured preemption mode, and
/// the planner, estimate cache and journal follow every finisher and
/// victim.
struct TdStepHooks<'r, 's> {
    engine: &'r TdPipeEngine,
    /// The sessions of a session run.
    work: Option<Workload<'s>>,
    kv: &'r mut SessionKv,
    planner: &'r mut GreedyPrefillPlanner,
    est_cache: &'r mut PrefillEstimateCache,
    unreleased: &'r mut VecDeque<u32>,
    queue: &'r mut QueueWork,
    journal: &'r mut FlightRecorder,
    /// Host-link time this step's swap-outs hold the batch back.
    swap_out_delay: f64,
}

impl StepHooks for TdStepHooks<'_, '_> {
    /// Retire a finished request's KV: the session KV retains it for the
    /// successor when the budget allows (dropping older retained prefixes
    /// first), and frees it otherwise; then release the successor's
    /// closed-loop arrival (finish + think time), moving it from the
    /// unreleased turns to its sorted slot in the pending queue.
    fn retire(&mut self, m: usize, env: &mut StepEnv<'_, '_>) -> u64 {
        // `remove_request` subtracts the *tracked* contribution, so the
        // planner needs no settle first.
        self.planner.remove_request(m);
        let StepEnv {
            pool,
            alloc,
            pending,
            now,
            ..
        } = env;
        let now = *now;
        let journal = &mut *self.journal;
        // The lifecycle terminator: with arrival and first-token stamps
        // copied in, a journal alone reconstructs every latency component
        // (the span layer never needs the request pool).
        let (request, arrival) = (pool.id(m).0, pool.arrival(m));
        let first_token = pool.first_token_at(m);
        journal.record(now, TraceEvent::RequestFinish { request, arrival, first_token });
        let next = self.work.and_then(|w| w.next(m));
        let sink = |e| journal.record(now, session_event(e));
        #[expect(clippy::expect_used, reason = "every batch member was allocated at admission and \
            eviction removes it from its batch, so a finisher is resident, and a retained donor \
            stays resident until its entry is dropped or claimed")]
        let held = self
            .kv
            .finish(alloc, m as u64, next.map(u64::from), sink)
            .expect("finished request resident");
        if let (Some(work), Some(succ)) = (self.work, next) {
            let succ = succ as usize;
            let at = now + work.think_s(succ);
            release(pending, self.unreleased, pool, succ, at, now, self.queue);
            // Also covers the reuse discounts dropped and granted above.
            self.est_cache.invalidate();
        }
        held
    }

    #[expect(clippy::expect_used, reason = "a retained donor stays resident until its entry is \
        dropped or claimed")]
    fn reclaim(&mut self, target: Blocks, env: &mut StepEnv<'_, '_>) -> bool {
        let (est_cache, journal, now) = (&mut *self.est_cache, &mut *self.journal, env.now);
        // A drop revokes its successor's prefill discount.
        let sink = |e| {
            est_cache.invalidate();
            journal.record(now, session_event(e));
        };
        self.kv.reclaim(env.alloc, target, None, sink).expect("retained donor resident")
    }

    fn preempt(&mut self, victim: usize, env: &mut StepEnv<'_, '_>) {
        self.planner.remove_request(victim);
        let mode = match self.engine.cfg.engine.preemption {
            PreemptionMode::Recompute => {
                env.pool.note_eviction(victim);
                EvictMode::Recompute
            }
            PreemptionMode::Swap => {
                // The victim's KV streams to host memory; the batch cannot
                // relaunch until its share of the link is free.
                let tokens = env.pool.resident_tokens(victim);
                self.swap_out_delay += self.engine.swap_seconds(tokens);
                env.pool.note_swap_out(victim);
                EvictMode::Swap
            }
        };
        let victim = env.pool.id(victim).0;
        self.journal.record(env.now, TraceEvent::Evict { mode, victim });
        self.est_cache.invalidate();
    }
}

/// The TD-Pipe inference engine for one `(model, node)` configuration.
#[derive(Debug, Clone)]
pub struct TdPipeEngine {
    cfg: TdPipeConfig,
    cost: PpCost,
    plan: MemoryPlan,
}

impl TdPipeEngine {
    /// Plan an engine; fails when the model has fewer layers than the node
    /// has GPUs, or when some pipeline stage cannot hold its weights plus
    /// at least one KV block.
    pub fn new(
        model: ModelSpec,
        node: &NodeSpec,
        cfg: TdPipeConfig,
    ) -> Result<Self, InfeasibleConfig> {
        if node.num_gpus > model.layers {
            return Err(InfeasibleConfig {
                reason: format!(
                    "{} has {} layers, too few for {} pipeline stages",
                    model.name, model.layers, node.num_gpus
                ),
            });
        }
        let plan = MemoryPlan::pipeline(&model, node).ok_or_else(|| InfeasibleConfig {
            reason: format!(
                "{} does not fit {}x{} pipeline stages",
                model.name, node.num_gpus, node.gpu.name
            ),
        })?;
        // The occupancy trace stores used-block counts as `u32`.
        if u32::try_from(plan.kv_blocks.get()).is_err() {
            return Err(InfeasibleConfig {
                reason: format!("a KV pool of {} blocks exceeds u32", plan.kv_blocks),
            });
        }
        let cost = PpCost::new(model, node);
        Ok(TdPipeEngine { cfg, cost, plan })
    }

    /// The planned KV pool.
    pub fn plan(&self) -> &MemoryPlan {
        &self.plan
    }

    /// The cost model in use.
    pub fn cost(&self) -> &PpCost {
        &self.cost
    }

    /// Host-link time to move `tokens` tokens of KV (swap preemption, out
    /// or back in).
    fn swap_seconds(&self, tokens: u64) -> f64 {
        let kv_volume = tokens as f64 * self.cost.model().kv_bytes_per_token() as f64;
        kv_volume / HOST_LINK_BW
    }

    /// Build the offline decode profile for the spatial-intensity lookup,
    /// using the trace's average context length as the representative
    /// profiling context (the paper profiles offline the same way).
    fn build_profile(&self, work: &Workload<'_>) -> DecodeProfile {
        let n = work.len().max(1) as u64;
        let requests = (0..work.len()).map(|i| work.request(i));
        let input: u64 = requests.clone().map(|r| r.input_len as u64).sum();
        let output: u64 = requests.map(|r| r.output_len as u64).sum();
        let avg_ctx = ((input + output / 2) / n).max(16);
        let avg_total = ((input + output) / n).max(16);
        // "Peak" is the per-request rate at a sufficiently large batch
        // (§3.5). The largest batch this configuration can actually field
        // is a full memory's worth of requests divided over the
        // `num_stages` in-flight decode batches — profile up to that point
        // so spatial intensity is 1.0 right after a full prefill phase and
        // decays as requests retire.
        let max_batch = (self.plan.token_capacity()
            / avg_total
            / self.cost.num_stages() as u64)
            .clamp(8, 4096) as usize;
        DecodeProfile::build(max_batch, |b| {
            self.cost.decode_job(b, b as u64 * avg_ctx).latency()
        })
    }

    /// A simulator plane sized and configured for this engine, for
    /// [`Self::try_run`].
    pub fn sim_plane(&self) -> Box<dyn PipelineExecutor> {
        let e = &self.cfg.engine;
        Box::new(SimExecutor::new(
            self.cost.num_stages(),
            e.transfer_mode,
            e.record_timeline,
        ))
    }

    /// Run the paper's offline setting (every request queued at t = 0) on
    /// the simulator, consulting `predictor` for output lengths (pass
    /// [`tdpipe_predictor::OraclePredictor`] for the perfect-information
    /// ablation).
    ///
    /// # Panics
    /// As [`Self::try_run`].
    pub fn run<P: OutputLenPredictor + ?Sized>(&self, trace: &Trace, predictor: &P) -> RunOutcome {
        self.try_run(Workload::offline(trace), predictor, self.sim_plane())
            .unwrap_or_else(|e| unreachable!("the simulator cannot fail: {e}"))
    }

    /// [`Self::try_run`] of open-loop requests on the simulator. Kept only
    /// because the separately built benchmark package
    /// (`src/bin/benchmark`) compiles against it.
    pub fn run_with_arrivals<P: OutputLenPredictor + ?Sized>(
        &self,
        trace: &Trace,
        arrivals: &[f64],
        predictor: &P,
    ) -> RunOutcome {
        let work = Workload::Requests { trace, arrivals };
        self.try_run(work, predictor, self.sim_plane())
            .unwrap_or_else(|e| unreachable!("the simulator cannot fail: {e}"))
    }

    /// [`Self::try_run`] of open-loop requests. Kept only because the
    /// separately built benchmark package (`src/bin/benchmark`) compiles
    /// against it.
    pub fn try_run_on<P: OutputLenPredictor + ?Sized>(
        &self,
        trace: &Trace,
        arrivals: &[f64],
        predictor: &P,
        plane: Box<dyn PipelineExecutor>,
    ) -> Result<RunOutcome, ExecError> {
        self.try_run(Workload::Requests { trace, arrivals }, predictor, plane)
    }

    /// Run the engine over `work` against any execution plane — the
    /// simulator ([`Self::sim_plane`]) or the threaded hierarchy-controller
    /// (`tdpipe-runtime`) — consulting `predictor` for output lengths.
    /// Latencies are arrival-relative; a session turn arrives when its
    /// predecessor finishes plus think time, and with
    /// [`crate::config::EngineConfig::session_reuse`] on prefills only the
    /// suffix its retained session KV does not cover. An execution-plane
    /// failure (worker panic, lost message, wedged shutdown) is an
    /// [`ExecError`], never a panic or a hang.
    ///
    /// # Panics
    /// On scheduling preconditions only: a request that cannot fit in KV
    /// memory alone, misaligned or unsorted arrivals, a pending request
    /// that never arrives, or a session trace failing its invariants.
    pub fn try_run<P: OutputLenPredictor + ?Sized>(
        &self,
        work: Workload<'_>,
        predictor: &P,
        plane: Box<dyn PipelineExecutor>,
    ) -> Result<RunOutcome, ExecError> {
        self.run_impl(work, predictor, plane, &mut RunProbe::default())
    }

    /// [`Self::try_run`] with the caller's `probe`, which starts empty, so
    /// tests can read the run's work counters afterwards. Sessions thread
    /// the closed-loop linkage (arrival release, KV retention) through
    /// the run; open-loop requests leave all of that behind one branch.
    fn run_impl<P: OutputLenPredictor + ?Sized>(
        &self,
        work: Workload<'_>,
        predictor: &P,
        plane: Box<dyn PipelineExecutor>,
        probe: &mut RunProbe,
    ) -> Result<RunOutcome, ExecError> {
        // A whole session trace is checked here; a share's rows are laid
        // out from a checked parent.
        if let Workload::Sessions(st) = work {
            st.check_invariants();
        }
        let RunProbe {
            est_cache,
            work: switch_work,
            queue,
            decisions,
        } = probe;
        let e = &self.cfg.engine;
        let (journal, metrics) = (e.record_trace, e.record_metrics);
        let run = RunState::new(&work, |r| predictor.predict(r), journal, metrics);
        let n = run.pool.len();
        est_cache.latency_cap = self.prefill_latency_cap(&run.pool);
        let n_stages = self.cost.num_stages() as usize;
        let mut alloc = BlockAllocator::new(self.plan.kv_blocks, BLOCK_SIZE);
        let mut planner = GreedyPrefillPlanner::new(future_points(), self.plan.token_capacity());
        // A closed-loop run admits turns far out of id order, so its
        // windows span most of its ids anyway: size them once rather than
        // regrow them mid-run. Open-loop windows stay O(in-flight).
        if work.is_sessions() {
            alloc.reserve_ids(n);
            planner.reserve_ids(n);
        }
        // Closed-loop session state: the retention pool gets the
        // configured fraction of KV blocks (zero when reuse is off, so
        // every finished turn frees normally). Open-loop runs never retain.
        let mut kv = SessionKv::new(Blocks::ZERO);
        let sess = work.is_sessions().then(|| {
            let frac = e.session_retain_frac.clamp(0.0, 1.0);
            #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "frac is \
                clamped to [0,1] and kv_blocks <= 2^32, so the product is exact enough and stays \
                well inside u64")]
            let budget = Blocks::new((self.plan.kv_blocks.get() as f64 * frac) as u64);
            kv = SessionKv::new(if e.session_reuse { budget } else { Blocks::ZERO });
            kv.reserve_ids(n);
            SessionRun {
                work,
                reuse_misses: 0,
            }
        });
        // Arrivals ascend (`RunState::new` checks), so open-loop requests
        // and first turns come first; later turns arrive at `+∞` and wait,
        // unreleased, until their predecessor finishes. `pending` has room
        // for every request, so releases never regrow it mid-run.
        let released = (0..n)
            .position(|i| run.pool.arrival(i).is_infinite())
            .unwrap_or(n);
        let mut pending = VecDeque::with_capacity(n);
        pending.extend(0..queued(released));
        let unreleased: VecDeque<u32> = (queued(released)..queued(n)).collect();
        // Size the estimate walk for the deepest walk the opening queue
        // allows, so later extensions seldom allocate mid-run.
        let opening = Queue {
            pending: &pending,
            unreleased: &unreleased,
            kv: &kv,
        };
        let (batches, positions) = full_walk(opening, &run.pool, self.plan.token_capacity());
        est_cache.reserve(batches, positions);
        let policy = TdRun {
            engine: self,
            est_cache,
            work: switch_work,
            queue,
            decisions,
            sess,
            kv,
            comparator: IntensityComparator::new(self.build_profile(&work)),
            alloc,
            planner,
            pending,
            unreleased,
            residents: Vec::new(),
            #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss, reason = "watermark \
                is in [0,1] and kv_blocks <= 2^32, so the ceil stays well inside u64 and the \
                round-up direction is the conservative one for admission")]
            watermark_blocks: Blocks::new(
                (self.plan.kv_blocks.get() as f64 * WATERMARK).ceil() as u64,
            ),
            // `new` refused pools whose block count exceeds `u32`. Fig. 12's
            // series rides the metrics plane; the peak is kept on every run.
            occupancy: OccupancyTrace::for_pool(self.plan.kv_blocks, metrics),
            open: None,
            prefill: PrefillPhase::default(),
            decode: DecodePhase {
                cohorts: (0..n_stages).map(|_| DecodeCohort::new(BLOCK_SIZE)).collect(),
                batch_ctx: vec![0; n_stages],
                ..DecodePhase::default()
            },
            job: StagedJob::default(),
        };
        // Charge the (tiny) predictor cost up front, like the paper's
        // §4.4.1 accounting.
        let start = n as f64 * predictor.per_request_overhead();
        drive(policy, run, plane, start)
    }

    /// `l_cap`: a bound on the latency of every prefill batch the packer
    /// can form over `pool`'s requests, which bounds the bubble of every
    /// §3.5 estimate (DESIGN.md §5 *Certified switch*). A batch of two or
    /// more requests holds at most the token budget, a batch of one at
    /// most its request's prompt plus output, so at most `T` tokens; it
    /// has no more sequences than tokens, save requests with empty
    /// prompts; and its attention FLOPs `Σ 2·h·s²` are at most
    /// `2·h·(Σ s)²`. Batch latency rises with all three, so the batch of
    /// `T` tokens in `T` sequences with `2·h·T²` attention FLOPs bounds
    /// it, and a 1e-6 relative slack covers the rounding of both sums.
    fn prefill_latency_cap(&self, pool: &RequestPool) -> f64 {
        let longest = (0..pool.len()).map(|i| pool.input_len(i) as u64 + pool.output_len(i) as u64);
        let tokens = longest.max().unwrap_or(0).max(PREFILL_TOKEN_BUDGET as u64);
        let empty_prompts = (0..pool.len()).filter(|&i| pool.input_len(i) == 0).count() as u64;
        let h = self.cost.model().hidden as f64;
        let t = tokens as f64;
        let mut job = StagedJob::default();
        self.cost
            .prefill_job_from_parts(tokens, 2.0 * h * t * t, tokens + empty_prompts, &mut job);
        job.latency() * (1.0 + 1e-6)
    }

    /// Price the hypothetical next prefill phase for the temporal-intensity
    /// estimate: pack pending requests (by their *predicted* total KV
    /// need) into the currently free capacity, batch them exactly like the
    /// real prefill packer, and report the longest job plus the phase
    /// length.
    ///
    /// The hot path uses the memoized [`PrefillEstimateCache`]; this naive
    /// walk is kept as the debug-build cross-check oracle.
    #[cfg_attr(not(debug_assertions), allow(dead_code, reason = "the debug-build oracle only"))]
    fn estimate_prefill_phase(
        &self,
        queue: Queue<'_>,
        pool: &RequestPool,
        alloc: &BlockAllocator,
    ) -> PrefillPhaseEstimate {
        let mut free_tokens = alloc.free_blocks().tokens(BLOCK_SIZE);
        let mut longest = 0.0f64;
        let mut phase_len = 0.0f64;
        let seq_lens = &mut Vec::new();
        let mut batch_tokens: u32 = 0;
        let flush = |seq_lens: &mut Vec<u32>, longest: &mut f64, phase_len: &mut f64| {
            if seq_lens.is_empty() {
                return;
            }
            let job = self.cost.prefill_job(seq_lens);
            *longest = longest.max(job.latency());
            *phase_len += job.bottleneck();
            seq_lens.clear();
        };
        for idx in queue.iter() {
            let t = queue.prefill_tokens(pool, idx);
            let need = (t + pool.predicted_remaining(idx)) as u64;
            if need > free_tokens {
                break;
            }
            free_tokens -= need;
            if batch_tokens + t > PREFILL_TOKEN_BUDGET && !seq_lens.is_empty() {
                flush(&mut *seq_lens, &mut longest, &mut phase_len);
                batch_tokens = 0;
            }
            seq_lens.push(t);
            batch_tokens += t;
        }
        flush(&mut *seq_lens, &mut longest, &mut phase_len);
        PrefillPhaseEstimate {
            longest_job: longest,
            phase_len,
        }
    }
}

/// What a run leaves its caller to read back: the prefill-estimate cache
/// with its rebuild and pricing counters, the decode cohorts' phase-switch
/// work, the pending queue's release work, and how §3.5 decisions were
/// settled.
#[derive(Default)]
struct RunProbe {
    est_cache: PrefillEstimateCache,
    work: SwitchWork,
    queue: QueueWork,
    decisions: DecisionWork,
}

/// Decode-cohort work over one run, next to what re-banking every resident
/// at every decode-phase open would cost.
#[derive(Default)]
struct SwitchWork {
    /// Residents summed over decode-phase opens.
    residents_at_open: u64,
    /// The run's [`DecodeStepper`] joins, leaves and in-place settles.
    cohort_ops: u64,
}

/// Session-successor releases over one run, and the pending-queue entries
/// their searches read.
#[derive(Default)]
struct QueueWork {
    releases: u64,
    release_probes: u64,
}

/// How the run's §3.5 intensity decisions were settled.
#[derive(Default)]
struct DecisionWork {
    decisions: u64,
    /// Settled by spatial intensity at or above 1 (never switch).
    saturated: u64,
    /// Settled by a certified switch.
    certified: u64,
    /// The reference the lazy walk is measured against — counted only when
    /// a test sets it to `Some`, since it costs a full walk per decision.
    #[cfg(test)]
    full_walks: Option<tests::FullWalks>,
}

/// Batches and positions in a from-scratch estimate walk of `queue` that
/// stops, as the walk once did, at the first batch start past `capacity`
/// cumulative need: no query reads deeper. The tests' reference for the
/// lazy walk, and the estimate walk's initial size.
fn full_walk(queue: Queue<'_>, pool: &RequestPool, capacity: u64) -> (usize, usize) {
    let mut it = queue.iter().peekable();
    let (mut batches, mut positions, mut need) = (0, 0, 0u64);
    while need <= capacity {
        let Some(first) = it.next() else { break };
        batches += 1;
        positions += 1;
        let mut budget = queue.prefill_tokens(pool, first);
        need += (budget + pool.predicted_remaining(first)) as u64;
        while let Some(&next) = it.peek() {
            let t = queue.prefill_tokens(pool, next);
            if budget + t > PREFILL_TOKEN_BUDGET {
                break;
            }
            budget += t;
            need += (t + pool.predicted_remaining(next)) as u64;
            positions += 1;
            it.next();
        }
    }
    (batches, positions)
}

/// Prefill completions carry `PREFILL_TAG + seq`; decode batches carry
/// their batch index.
const PREFILL_TAG: u64 = 1 << 32;

/// The prefill phase in progress. Its vectors keep their capacity across
/// phases, so the steady state allocates nothing per prefill batch.
#[derive(Default)]
struct PrefillPhase {
    /// Engine time the phase began.
    t0: f64,
    /// Requests admitted this phase (fresh, recomputed or swapped in).
    admitted: u64,
    /// Prefill launches over the whole run (completion tags).
    seq: u64,
    /// Members of this phase's batches, in launch order.
    members: Vec<usize>,
    /// Per launched batch: its range in `members` and the KV blocks used
    /// at launch.
    meta: Vec<(usize, usize, Blocks)>,
    /// Batches whose completion has been collected.
    collected: usize,
    /// Latest completion so far, never before the packing clock: the
    /// phase's end, and the journal clock of its completions.
    end: f64,
    /// Packing scratch: the next batch and its sequence lengths.
    batch: Vec<usize>,
    seq_lens: Vec<u32>,
}

/// The decode phase in progress: one batch per stage, each with its own
/// event-driven cohort (see [`crate::cohort`]). Everything here is reused
/// across phases, so a phase switch allocates nothing, and the cohorts
/// keep their members banked from one decode phase to the next.
#[derive(Default)]
struct DecodePhase {
    batches: Vec<DecodeBatch>,
    /// Batch sizes at phase start.
    initial_sizes: Vec<usize>,
    stealer: Option<WorkStealer>,
    cohorts: Vec<DecodeCohort>,
    /// Running per-batch context totals (`DecodeBatch::total_ctx`
    /// maintained incrementally).
    batch_ctx: Vec<u64>,
    /// Batches in flight, in launch order.
    inflight: VecDeque<usize>,
    steps: u64,
    finished: usize,
    /// The §3.5 decision fired: batches retire instead of relaunching.
    switching: bool,
}

impl DecodePhase {
    /// Settle every banked member's steps in place — pool, allocator and
    /// planner — keeping it banked in its batch's cohort.
    fn settle_banked(
        &self,
        stepper: &mut DecodeStepper,
        pool: &mut RequestPool,
        alloc: &mut BlockAllocator,
        planner: &mut GreedyPrefillPlanner,
    ) {
        for (b, coh) in self.batches.iter().zip(&self.cohorts) {
            for &m in &b.members {
                let steps = stepper.settle(coh, m, pool, alloc);
                planner.advance(m, steps);
            }
        }
    }
}

/// One TD-Pipe run as a policy on the shared loop: a two-state phase
/// machine over one KV pool, the Algorithm-1 planner and the pending queue.
struct TdRun<'a> {
    engine: &'a TdPipeEngine,
    est_cache: &'a mut PrefillEstimateCache,
    work: &'a mut SwitchWork,
    queue: &'a mut QueueWork,
    decisions: &'a mut DecisionWork,
    sess: Option<SessionRun<'a>>,
    /// Finished turns' KV retained for their successors (always empty
    /// outside session runs).
    kv: SessionKv,
    comparator: IntensityComparator,
    alloc: BlockAllocator,
    planner: GreedyPrefillPlanner,
    /// Requests waiting for (re-)admission whose arrival time is known, in
    /// two regions:
    /// 1. a *head* of arrived requests: evicted ones requeued at the front,
    ///    most recent eviction first, then arrived ones not yet admitted;
    /// 2. *future* arrivals, ascending by arrival time.
    ///
    /// The queue every reader sees is `pending` followed by
    /// [`Self::unreleased`]. Admission pops the head's front and eviction
    /// pushes onto it, O(1) each. A release takes its successor off
    /// `unreleased` and inserts it at `partition_point(arrival <= at)` (the
    /// head has arrived and the rest ascends, so that predicate partitions
    /// `pending`): O(log n) probes each, then one removal near the front of
    /// `unreleased` and one insertion among the future arrivals, each
    /// moving the shorter side of its deque.
    /// Debug builds check the layout, and both positions against a linear
    /// walk, at every release.
    pending: VecDeque<u32>,
    /// Session turns whose predecessor has not finished (infinite
    /// arrival), ascending by request index. Successors are released
    /// roughly in index order, so they sit near the front.
    unreleased: VecDeque<u32>,
    /// Admitted requests still decoding, in admission order.
    residents: Vec<usize>,
    watermark_blocks: Blocks,
    occupancy: OccupancyTrace,
    /// The phase in progress; `None` between phases.
    open: Option<Phase>,
    prefill: PrefillPhase,
    decode: DecodePhase,
    job: StagedJob,
}

impl Policy for TdRun<'_> {
    fn launch(&mut self, run: &mut RunState, plane: &mut dyn PipelineExecutor, now: f64) -> f64 {
        let mut now = now;
        loop {
            match self.open {
                None if run.pool.all_finished() => return now,
                None => now = self.open_prefill(run, plane, now),
                Some(Phase::Prefill) if self.prefill.collected < self.prefill.meta.len() => {
                    return now
                }
                Some(Phase::Prefill) => {
                    // The control clock moves past the serialised launches.
                    now += self.prefill.meta.len() as f64 * ENGINE_OVERHEAD;
                    if self.residents.is_empty() {
                        // Nothing runnable: the driver fast-forwards to the
                        // next arrival, and the empty phase leaves no record.
                        self.open = None;
                    } else {
                        self.open_decode(run, plane, now);
                    }
                    return now;
                }
                Some(Phase::Decode) if !self.decode.inflight.is_empty() => return now,
                Some(Phase::Decode) => self.close_decode(run, now),
            }
        }
    }

    fn complete(
        &mut self,
        run: &mut RunState,
        plane: &mut dyn PipelineExecutor,
        tag: u64,
        finish: f64,
        now: f64,
    ) -> f64 {
        if self.open == Some(Phase::Prefill) {
            debug_assert!(tag > PREFILL_TAG, "prefills complete before decodes");
            self.prefill_done(run, finish);
            now
        } else {
            #[expect(clippy::cast_possible_truncation, reason = "decode tags are batch indices, \
                `usize` values widened to `u64` at launch")]
            let bid = tag as usize;
            self.decode_done(run, plane, bid, finish)
        }
    }

    fn stall(&mut self, run: &RunState, now: f64) -> Stall {
        let pool = &run.pool;
        let capacity = self.engine.plan.token_capacity();
        // Unreleased turns never arrive on their own: only `pending` counts.
        let arrivals = self.pending.iter().map(|&i| pool.arrival(i as usize));
        Stall {
            oversize: self
                .pending
                .front()
                .map(|&i| i as usize)
                .filter(|&i| pool.arrival(i) <= now)
                .map(|i| (i, pool.resident_tokens(i), capacity)),
            next_arrival: arrivals.fold(f64::INFINITY, f64::min),
        }
    }

    fn close(self, run: &mut RunState) -> Close {
        let st = &run.stepper;
        self.work.cohort_ops = st.joins + st.leaves + st.settles;
        if let Some(s) = &self.sess {
            let drained = self.kv.is_empty();
            debug_assert!(drained, "all retained session prefixes should be claimed by run end");
            run.metrics.on_session_summary(self.kv.stats(), s.reuse_misses);
        }
        Close {
            scheduler: "TD-Pipe".into(),
            occupancy: self.occupancy,
            alloc: self.alloc.stats(),
            kv_blocks: self.engine.plan.kv_blocks,
            evict_mode: match self.engine.cfg.engine.preemption {
                PreemptionMode::Recompute => EvictMode::Recompute,
                PreemptionMode::Swap => EvictMode::Swap,
            },
            windows: WindowSpans {
                kv: self.alloc.window_high_water(),
                planner: self.planner.window_high_water(),
                ..WindowSpans::default()
            },
        }
    }
}

impl TdRun<'_> {
    /// Open a prefill phase: pack prompt batches up to the token budget
    /// and stream them into the pipeline until Algorithm 1 (or the
    /// fixed-occupancy ablation) stops admission, memory runs out, or the
    /// queue's head has not arrived. Swap-preempted requests re-enter over
    /// the host link instead. Returns the control clock.
    fn open_prefill(
        &mut self,
        run: &mut RunState,
        plane: &mut dyn PipelineExecutor,
        mut now: f64,
    ) -> f64 {
        let eng = self.engine;
        self.open = Some(Phase::Prefill);
        let pf = &mut self.prefill;
        pf.t0 = now;
        pf.members.clear();
        pf.meta.clear();
        pf.collected = 0;
        pf.admitted = 0;
        // Decode members stay banked across the switch, so the planner
        // lags their banked steps until this phase first reads it: after
        // its first launch, where the stop check starts to bind. Online,
        // a phase usually finds the next queue head not yet arrived by
        // then, which ends it with an arrival stop whatever the planner
        // says, so the phase skips the read.
        let mut settled = false;
        // The queue's head may be an unreleased turn: it has not arrived,
        // so the packer records an arrival stop for it like any other.
        while let Some(head) = queue_head(&self.pending, &self.unreleased) {
            if !settled && !pf.meta.is_empty() {
                let clock = now + pf.meta.len() as f64 * ENGINE_OVERHEAD;
                if run.pool.arrival(head) > clock {
                    let (reason, admitted) = (PrefillStopReason::Arrival, pf.admitted);
                    run.record(now, TraceEvent::PrefillStop { reason, admitted });
                    break;
                }
                settled = true;
                let (stepper, pool) = (&mut run.stepper, &mut run.pool);
                self.decode.settle_banked(stepper, pool, &mut self.alloc, &mut self.planner);
                // The planner is maintained incrementally across phases
                // (admit/remove/advance); in debug builds, rebuild it from
                // scratch and check the usage grids agree exactly.
                #[cfg(debug_assertions)]
                {
                    let cap = eng.plan.token_capacity();
                    let mut oracle = GreedyPrefillPlanner::new(future_points(), cap);
                    for &i in &self.residents {
                        let pool = &run.pool;
                        oracle.admit(i, pool.resident_tokens(i), pool.predicted_remaining(i));
                    }
                    debug_assert_eq!(
                        oracle.usage(),
                        self.planner.usage(),
                        "incremental planner drifted from a from-scratch rebuild"
                    );
                }
            }
            let stop = match eng.cfg.p2d {
                P2dPolicy::Greedy => self.planner.would_overflow(),
                P2dPolicy::FixedOccupancy(r) => self.alloc.occupancy() >= r,
            };
            if stop && !pf.meta.is_empty() {
                let (reason, admitted) = (PrefillStopReason::Overflow, pf.admitted);
                run.record(now, TraceEvent::PrefillStop { reason, admitted });
                break;
            }
            // Pack the next prefill batch up to the token budget.
            pf.batch.clear();
            pf.seq_lens.clear();
            let mut batch_tokens: u32 = 0;
            // Why the packing loop below halted (journal; the loop running
            // the queue dry leaves the default).
            let mut pack_stop = PrefillStopReason::Exhausted;
            while let Some(idx) = queue_head(&self.pending, &self.unreleased) {
                // Online extension: a request can only be prefilled after
                // it has arrived.
                if run.pool.arrival(idx) > now + pf.meta.len() as f64 * ENGINE_OVERHEAD {
                    pack_stop = PrefillStopReason::Arrival;
                    break;
                }
                // `t` is what the prefill must *compute* (fresh suffix
                // only on a session reuse hit); `full` is what the request
                // *occupies* once resident. Equal except on a hit, where
                // the donor's retained blocks come back first, so they
                // count toward the admission check. Swap-preempted requests
                // re-enter via a host-link transfer, not a prefill job, so
                // the token budget does not bind them.
                let swapped = run.pool.swapped(idx);
                let queue = Queue {
                    pending: &self.pending,
                    unreleased: &self.unreleased,
                    kv: &self.kv,
                };
                let t = queue.prefill_tokens(&run.pool, idx);
                if !swapped && !pf.batch.is_empty() && batch_tokens + t > PREFILL_TOKEN_BUDGET {
                    pack_stop = PrefillStopReason::Budget;
                    break;
                }
                let full = run.pool.resident_tokens(idx);
                let needed = Blocks::for_tokens(full, BLOCK_SIZE) + self.watermark_blocks;
                // Idle retained session prefixes (never this request's own)
                // yield to live admissions before the packer gives up. A
                // drop revokes its successor's prefill discount.
                let (est_cache, journal) = (&mut *self.est_cache, &mut run.journal);
                let sink = |e| {
                    est_cache.invalidate();
                    journal.record(now, session_event(e));
                };
                #[expect(clippy::expect_used, reason = "a retained donor stays resident until its \
                    entry is dropped or claimed")]
                let fits = self
                    .kv
                    .make_room(&mut self.alloc, idx as u64, needed, sink)
                    .expect("retained donor resident");
                if !fits {
                    pack_stop = PrefillStopReason::Memory;
                    break;
                }
                // Claim the retained prefix, if it survived, then allocate.
                #[expect(clippy::expect_used, reason = "guarded above: the admission check \
                    reserved `needed + watermark` free blocks (counting the donor's, freed by the \
                    claim), and a pipeline pool holds far fewer than `MAX_RECORD_TOKENS`, so this \
                    allocation cannot fail")]
                let claimed = self
                    .kv
                    .admit(&mut self.alloc, idx as u64, full)
                    .expect("admission check guaranteed fit");
                self.pending.pop_front();
                self.est_cache.invalidate();
                if swapped {
                    run.pool.note_swap_in(idx, full);
                    now += eng.swap_seconds(full);
                    run.pool.stamp_admission(idx);
                    self.residents.push(idx);
                    self.planner.admit(idx, full, run.pool.predicted_remaining(idx));
                    pf.admitted += 1;
                    let (request, reason) = (run.pool.id(idx).0, AdmitReason::SwapIn);
                    run.record(now, TraceEvent::PrefillAdmit { request, tokens: full, reason });
                    continue;
                }
                // Session accounting at the moment admission is certain:
                // the hit, or the miss of a first-time resumed turn.
                if let Some(s) = self.sess.as_mut() {
                    let request = run.pool.id(idx).0;
                    if let Some(tokens) = claimed {
                        run.record(now, TraceEvent::SessionReuseHit { request, tokens });
                    } else if s.work.is_resumed(idx) && run.pool.evictions(idx) == 0 {
                        s.reuse_misses += 1;
                        run.record(now, TraceEvent::SessionReuseMiss { request });
                    }
                }
                pf.batch.push(idx);
                pf.seq_lens.push(t);
                batch_tokens += t;
            }
            if pf.batch.is_empty() {
                // Memory full, head not yet arrived, or swap-ins emptied
                // the queue: pack_stop is Arrival or Memory when the packer
                // broke on its very first candidate, Exhausted when
                // swap-ins admitted the rest of the queue. (A request
                // larger than the whole pool leaves nothing resident and
                // surfaces in the driver's idle fast-forward.)
                let (reason, admitted) = (pack_stop, pf.admitted);
                run.record(now, TraceEvent::PrefillStop { reason, admitted });
                break;
            }
            eng.cost.prefill_job_into(&pf.seq_lens, &mut self.job);
            let ready = now + pf.meta.len() as f64 * ENGINE_OVERHEAD;
            pf.seq += 1;
            let tag = PREFILL_TAG + pf.seq;
            plane.launch(ready, &self.job.exec, &self.job.xfer, SegmentKind::Prefill, tag);
            // Span anchor: records the packing clock, carries the
            // executor-ready instant (the two differ by the serialised
            // launch overhead — the per-request prefill-wait span).
            run.record(
                now,
                TraceEvent::PrefillLaunch {
                    seq: pf.seq,
                    batch: pf.batch.len(),
                    tokens: batch_tokens as u64,
                    ready,
                },
            );
            run.metrics.on_prefill_batch(pf.batch.len(), batch_tokens as u64);
            let start = pf.members.len();
            pf.members.extend_from_slice(&pf.batch);
            pf.meta.push((start, pf.members.len(), self.alloc.used_blocks()));
            for (&idx, &t) in pf.batch.iter().zip(&pf.seq_lens) {
                run.pool.note_prefill(idx, t);
                // The planner tracks *residency*, not prefill work: on a
                // session reuse hit the two differ (`t` is the fresh
                // suffix; the request occupies its full prompt). Identical
                // to `t` on every other path.
                let pool = &run.pool;
                self.planner.admit(idx, pool.resident_tokens(idx), pool.predicted_remaining(idx));
                run.pool.stamp_admission(idx);
                self.residents.push(idx);
                pf.admitted += 1;
                let reason = if run.pool.evictions(idx) > 0 {
                    AdmitReason::Recompute
                } else {
                    AdmitReason::FirstPrefill
                };
                let (request, tokens) = (run.pool.id(idx).0, t as u64);
                run.record(now, TraceEvent::PrefillAdmit { request, tokens, reason });
            }
            let (reason, admitted) = (pack_stop, pf.admitted);
            run.record(now, TraceEvent::PrefillStop { reason, admitted });
        }
        // Completions are collected lazily, in launch order.
        pf.end = now;
        now
    }

    /// The next prefill batch returned at `finish`: stamp its members'
    /// first tokens and take the Fig. 12 occupancy sample.
    fn prefill_done(&mut self, run: &mut RunState, finish: f64) {
        let pf = &mut self.prefill;
        let (start, end, used) = pf.meta[pf.collected];
        pf.collected += 1;
        // Completion stamps are monotone (the pipeline retires jobs in
        // launch order); the running max guards the journal's time order
        // against any float jitter in the completion times.
        pf.end = pf.end.max(finish);
        for &idx in &pf.members[start..end] {
            run.pool.note_first_token(idx, finish);
            let request = run.pool.id(idx).0;
            run.record(pf.end, TraceEvent::PrefillDone { request });
        }
        self.occupancy.push(finish, used, Phase::Prefill);
        let queued = self.pending.len() + self.unreleased.len();
        let occ = used_fraction(used, self.alloc.num_blocks());
        run.metrics.sample(finish, occ, 0, 0, queued);
    }

    /// Close the collected prefill phase and open a decode phase at control
    /// time `now`: partition the residents into one batch per stage and
    /// issue them right behind the prefill jobs. Members the partition
    /// keeps in their batch stay banked in its cohort; only the ones it
    /// moves leave and settle, and the newly admitted join.
    fn open_decode(&mut self, run: &mut RunState, plane: &mut dyn PipelineExecutor, now: f64) {
        let eng = self.engine;
        let pf = &self.prefill;
        let record = PhaseRecord {
            phase: Phase::Prefill,
            start: pf.t0,
            end: pf.end,
            work_items: pf.admitted,
            finished: 0,
        };
        run.end_phase(record);
        self.open = Some(Phase::Decode);
        let dc = &mut self.decode;
        dc.steps = 0;
        dc.finished = 0;
        dc.switching = false;
        // Partition in admission order (§3.4: equal batches, one per GPU).
        // `residents` is kept in admission order by construction — prefill
        // appends in increasing admission stamps and the phase-end retain
        // preserves order — so no per-switch sort.
        debug_assert!(
            self.residents
                .windows(2)
                .all(|w| run.pool.admission_seq(w[0]) < run.pool.admission_seq(w[1])),
            "residents must stay in admission order"
        );
        self.work.residents_at_open += self.residents.len() as u64;
        let n_stages = eng.cost.num_stages() as usize;
        // Each new batch is an admission-order interval of `residents`, so
        // whether a banked member stays in its batch is one range test.
        for (bid, b) in dc.batches.iter().enumerate() {
            let span = &self.residents[even_range(self.residents.len(), n_stages, bid)];
            let pool = &run.pool;
            let seq = |m: usize| pool.admission_seq(m);
            let kept = span.first().zip(span.last()).map(|(&first, &last)| seq(first)..=seq(last));
            for &m in &b.members {
                if kept.as_ref().is_some_and(|k| k.contains(&run.pool.admission_seq(m))) {
                    continue;
                }
                let coh = &mut dc.cohorts[bid];
                let steps = run.stepper.leave(coh, m, &mut run.pool, &mut self.alloc);
                self.planner.advance(m, steps);
            }
        }
        partition_even_into(&self.residents, n_stages, &mut dc.batches);
        dc.initial_sizes.clear();
        dc.initial_sizes.extend(dc.batches.iter().map(DecodeBatch::len));
        if eng.cfg.work_stealing {
            match dc.stealer.as_mut() {
                Some(st) => st.reset(&dc.initial_sizes),
                None => dc.stealer = Some(WorkStealer::new(&dc.initial_sizes)),
            }
        }
        debug_assert!(dc.inflight.is_empty());
        for (bid, b) in dc.batches.iter().enumerate() {
            // Sum each batch once at phase start; from here on `batch_ctx`
            // is maintained incrementally. Bank the members not yet in the
            // batch's cohort: one join replaces the per-step per-member walk
            // for as long as the request stays in this batch.
            let coh = &mut dc.cohorts[bid];
            dc.batch_ctx[bid] = run.stepper.bank(coh, &b.members, &run.pool);
            // Debug oracle: the batch is exactly its cohort's banked set,
            // and its context total matches the allocator's per-request
            // records plus the banked steps.
            #[cfg(debug_assertions)]
            {
                let cm = &run.stepper.cm;
                let (mut banked, mut members) = (coh.banked(cm), b.members.clone());
                banked.sort_unstable();
                members.sort_unstable();
                debug_assert_eq!(banked, members, "batch {bid} is not its cohort's banked set");
                #[expect(clippy::expect_used, reason = "every batch member was allocated at \
                    admission and is still decoding")]
                let held = |m: usize| self.alloc.tokens_of(m as u64).expect("member resident");
                let ctx: u64 =
                    b.members.iter().map(|&m| held(m) + cm.pending(m, coh.epoch()) as u64).sum();
                debug_assert_eq!(dc.batch_ctx[bid], ctx, "batch {bid} context drifted");
            }
            if b.is_empty() {
                continue;
            }
            eng.cost.decode_job_into(b.len(), dc.batch_ctx[bid], &mut self.job);
            let ready = now + dc.inflight.len() as f64 * ENGINE_OVERHEAD;
            plane.launch(ready, &self.job.exec, &self.job.xfer, SegmentKind::Decode, bid as u64);
            run.metrics.on_decode_step(b.len());
            dc.inflight.push_back(bid);
        }
    }

    /// Decode batch `bid` returned at `finish`: step it, rebalance, make
    /// the §3.5 decode→prefill decision, then relaunch or retire it.
    /// Returns the clock.
    fn decode_done(
        &mut self,
        run: &mut RunState,
        plane: &mut dyn PipelineExecutor,
        bid: usize,
        finish: f64,
    ) -> f64 {
        let eng = self.engine;
        let dc = &mut self.decode;
        let popped = dc.inflight.pop_front();
        debug_assert_eq!(popped, Some(bid), "completions follow launch order");
        let mut now = finish;
        dc.steps += 1;
        let mut members = std::mem::take(&mut dc.batches[bid].members);
        // 1) Step the batch: one token per member; the finished retire
        //    (retaining KV for a session successor where allowed), the
        //    survivors' KV grows, and on overflow idle retained prefixes
        //    yield before the newest members are preempted (§4.1). This is
        //    the decode step every scheduler shares, with TD-Pipe's
        //    session, planner and observer effects as its hooks.
        let mut ctx = dc.batch_ctx[bid];
        let mut hooks = TdStepHooks {
            engine: eng,
            work: self.sess.as_ref().map(|s| s.work),
            kv: &mut self.kv,
            planner: &mut self.planner,
            est_cache: &mut *self.est_cache,
            unreleased: &mut self.unreleased,
            queue: &mut *self.queue,
            journal: &mut run.journal,
            swap_out_delay: 0.0,
        };
        let finished_now = run.stepper.step(
            &mut dc.cohorts[bid],
            &mut members,
            &mut ctx,
            &mut StepEnv {
                pool: &mut run.pool,
                alloc: &mut self.alloc,
                pending: &mut self.pending,
                now,
            },
            &mut hooks,
        );
        dc.finished += finished_now;
        now += hooks.swap_out_delay;
        // 2) Rebalance.
        if let Some(st) = dc.stealer.as_mut() {
            let epoch = dc.cohorts[bid].epoch();
            let (pool, cm) = (&run.pool, &run.stepper.cm);
            let moved = st.rebalance(&mut members, finished_now, &mut ctx, |m| {
                // Banked members lag the pool by their banked steps;
                // settled candidates (the withheld) read their pool state
                // exactly.
                pool.resident_tokens(m) + cm.pending(m, epoch) as u64
            });
            // Newly withheld members leave this batch's step cadence:
            // settle their banked steps now. Supplements join it: bank
            // them into this batch's cohort.
            let wh = st.withheld();
            for &m in &wh[wh.len() - moved.withheld..] {
                let p = run.stepper.leave(&mut dc.cohorts[bid], m, &mut run.pool, &mut self.alloc);
                self.planner.advance(m, p);
            }
            for &m in &members[members.len() - moved.supplemented..] {
                run.stepper.join(&mut dc.cohorts[bid], m, &run.pool);
            }
            let target = moved.target;
            if moved.withheld > 0 {
                let n = moved.withheld;
                run.record(now, TraceEvent::StealWithhold { n, target });
            }
            if moved.supplemented > 0 {
                let n = moved.supplemented;
                run.record(now, TraceEvent::StealSupplement { n, target });
            }
        }
        self.occupancy.push(now, self.alloc.used_blocks(), Phase::Decode);
        // 3) Decode→prefill decision, asked only once the queue's head has
        //    arrived: a prefill phase opened before then admits nothing and
        //    only drains and refills the pipeline. The head test is exact:
        //    `pending` lists arrived requests first, and unreleased session
        //    turns arrive at +∞.
        let pool = &run.pool;
        let queued = queue_head(&self.pending, &self.unreleased)
            .is_some_and(|h| pool.arrival(h) <= now);
        if !dc.switching && queued {
            let switch = match eng.cfg.d2p {
                D2pPolicy::Intensity => {
                    let live: usize =
                        members.len() + dc.batches.iter().map(DecodeBatch::len).sum::<usize>();
                    let live_batches = dc.inflight.len() + 1;
                    let mean_batch = (live / live_batches.max(1)).max(1);
                    // Context over the other batches (this one's slot is
                    // empty here, its `batch_ctx` not yet updated).
                    let stored_ctx = dc.batch_ctx.iter().sum::<u64>() - dc.batch_ctx[bid];
                    let mean_ctx = stored_ctx / live_batches.max(1) as u64;
                    eng.cost.decode_job_into(mean_batch, mean_ctx.max(1), &mut self.job);
                    let step = self.job.latency();
                    self.intensity_switch(run, mean_batch, step, now)
                }
                D2pPolicy::FixedFinishRatio(r) => {
                    let start_count: usize = dc.initial_sizes.iter().sum();
                    dc.finished as f64 >= r * start_count as f64
                }
            };
            self.decode.switching = switch;
        }
        let dc = &mut self.decode;
        // 4) Relaunch or retire the batch. If this is the last live batch
        //    and the stealer still withholds requests, absorb them —
        //    otherwise they would strand with no batch left to supplement.
        dc.batches[bid].members = members;
        if !dc.switching && dc.inflight.is_empty() {
            if let Some(st) = dc.stealer.as_mut() {
                for &m in st.withheld() {
                    ctx += run.pool.resident_tokens(m);
                    // Absorbed members rejoin this batch's cadence (they
                    // were settled when withheld).
                    run.stepper.join(&mut dc.cohorts[bid], m, &run.pool);
                }
                st.take_withheld_into(&mut dc.batches[bid].members);
            }
        }
        dc.batch_ctx[bid] = ctx;
        let b = &dc.batches[bid];
        if !dc.switching && !b.is_empty() {
            eng.cost.decode_job_into(b.len(), ctx, &mut self.job);
            // The decoupled control plane charges only the launch cost: the
            // bookkeeping overlaps the other in-flight batches (§3.2).
            let ready = now + ENGINE_OVERHEAD;
            plane.launch(ready, &self.job.exec, &self.job.xfer, SegmentKind::Decode, bid as u64);
            run.metrics.on_decode_step(b.len());
            dc.inflight.push_back(bid);
        }
        now
    }

    /// The §3.5 decision at `now`, for live batches of `mean_batch`
    /// members whose decode step takes `step`: switch to prefill when
    /// spatial intensity falls below the temporal intensity of the
    /// estimated next prefill phase. Two exact shortcuts settle most
    /// decisions without the full estimate (DESIGN.md §5 *Certified
    /// switch*): temporal intensity never exceeds 1, so saturated spatial
    /// intensity decides on an empty estimate; and the walk's first
    /// batches often prove the switch, which then decides on the
    /// certificate's estimate `(l_cap, P_k)`. The journal and the metrics
    /// plane record whichever estimate decided.
    fn intensity_switch(
        &mut self,
        run: &mut RunState,
        mean_batch: usize,
        step: f64,
        now: f64,
    ) -> bool {
        let eng = self.engine;
        let queue = Queue {
            pending: &self.pending,
            unreleased: &self.unreleased,
            kv: &self.kv,
        };
        let free_tokens = self.alloc.free_blocks().tokens(BLOCK_SIZE);
        let dw = &mut *self.decisions;
        dw.decisions += 1;
        #[cfg(test)]
        if let Some(full) = dw.full_walks.as_mut() {
            let (batches, positions) = full_walk(queue, &run.pool, eng.plan.token_capacity());
            full.batches += batches as u64;
            if !self.est_cache.is_valid() {
                full.walk_positions += positions as u64;
            }
        }
        let spatial = self.comparator.spatial(mean_batch);
        let l_cap = self.est_cache.latency_cap;
        let bubble_cap = (l_cap - step).max(0.0);
        #[cfg_attr(not(debug_assertions), allow(unused_variables, reason = "oracles read it"))]
        let (est, exact) = if spatial >= 1.0 {
            dw.saturated += 1;
            let est = PrefillPhaseEstimate {
                longest_job: 0.0,
                phase_len: 0.0,
            };
            (est, false)
        } else if let Some(phase_len) = self.est_cache.certifies_switch(
            queue,
            &run.pool,
            &eng.cost,
            free_tokens,
            spatial,
            bubble_cap,
        ) {
            // `temporal` recomputes the certificate's bound with the same
            // float operations, so this estimate decides "switch".
            dw.certified += 1;
            let est = PrefillPhaseEstimate {
                longest_job: l_cap,
                phase_len,
            };
            (est, false)
        } else {
            let est = self.est_cache.query(queue, &run.pool, &eng.cost, free_tokens);
            (est, true)
        };
        let scores = self.comparator.decide(mean_batch, &est, step);
        // Debug oracle: the naive repack decides the same, and the exact
        // estimate is bit-identical to it.
        #[cfg(debug_assertions)]
        {
            let naive = eng.estimate_prefill_phase(queue, &run.pool, &self.alloc);
            if exact {
                debug_assert_eq!(est.longest_job.to_bits(), naive.longest_job.to_bits());
                debug_assert_eq!(est.phase_len.to_bits(), naive.phase_len.to_bits());
            }
            let verdict = self.comparator.decide(mean_batch, &naive, step).switch;
            debug_assert_eq!(scores.switch, verdict, "decision disagrees with the naive repack");
        }
        run.record(
            now,
            TraceEvent::SwitchDecision {
                spatial: scores.spatial,
                temporal: scores.temporal,
                batch: mean_batch,
                est_longest: est.longest_job,
                est_phase_len: est.phase_len,
                switch: scores.switch,
            },
        );
        scores.switch
    }

    /// Every decode batch has retired: keep the survivors. Batch members
    /// stay banked in their cohorts across the switch — the next partition
    /// settles only the ones it moves, and a prefill phase that reads the
    /// planner settles the rest in place. `residents` was never cleared,
    /// so retaining the still-decoding entries preserves admission order
    /// for the next partition.
    fn close_decode(&mut self, run: &mut RunState, now: f64) {
        let dc = &self.decode;
        self.residents.retain(|&i| run.pool.lifecycle(i) == Lifecycle::Decoding);
        // A decode phase starts where its prefill phase's last job ended.
        let record = PhaseRecord {
            phase: Phase::Decode,
            start: self.prefill.end,
            end: now,
            work_items: dc.steps,
            finished: dc.finished,
        };
        run.end_phase(record);
        self.open = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_predictor::OraclePredictor;
    use tdpipe_workload::{Request, ShareGptLikeConfig};

    fn engine(num_gpus: u32) -> TdPipeEngine {
        TdPipeEngine::new(
            ModelSpec::llama2_13b(),
            &NodeSpec::l20(num_gpus),
            TdPipeConfig::default(),
        )
        .unwrap()
    }

    fn trace(n: usize) -> Trace {
        ShareGptLikeConfig::small(n, 42).generate()
    }

    /// `work` on the engine's simulator plane.
    fn sim_run<P: OutputLenPredictor>(e: &TdPipeEngine, work: Workload<'_>, p: &P) -> RunOutcome {
        e.try_run(work, p, e.sim_plane()).unwrap()
    }

    #[test]
    fn small_run_completes_and_conserves() {
        let out = engine(4).run(&trace(64), &OraclePredictor);
        let r = &out.report;
        assert_eq!(r.num_requests, 64);
        assert!(r.makespan > 0.0);
        assert!(r.output_tokens > 0);
        assert!(r.phase_switches >= 1);
        assert!(r.throughput_total() > 0.0);
    }

    #[test]
    fn single_gpu_degenerates_cleanly() {
        let out = engine(1).run(&trace(32), &OraclePredictor);
        assert_eq!(out.report.num_requests, 32);
        // One stage: utilization should be very high (no pipeline bubbles).
        assert!(out.report.mean_utilization > 0.8, "util {}", out.report.mean_utilization);
    }

    #[test]
    fn occupancy_trace_alternates_phases() {
        let mut cfg = TdPipeConfig::default();
        cfg.engine.record_metrics = true;
        let e = TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(4), cfg).unwrap();
        let out = e.run(&trace(256), &OraclePredictor);
        let phases: Vec<_> = out.occupancy.samples().map(|s| s.phase).collect();
        assert!(phases.windows(2).any(|w| w[0] != w[1]));
        assert!(out.occupancy.peak() <= 1.0);
    }

    #[test]
    fn infeasible_model_is_rejected() {
        let err = TdPipeEngine::new(
            ModelSpec::llama2_70b(),
            &NodeSpec::l20(1),
            TdPipeConfig::default(),
        )
        .unwrap_err();
        assert!(err.reason.contains("70B"));
    }

    #[test]
    fn deterministic_runs() {
        let t = trace(100);
        let a = engine(2).run(&t, &OraclePredictor);
        let b = engine(2).run(&t, &OraclePredictor);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn more_gpus_give_more_throughput() {
        let t = trace(300);
        let t1 = engine(1).run(&t, &OraclePredictor).report.throughput_total();
        let t4 = engine(4).run(&t, &OraclePredictor).report.throughput_total();
        assert!(t4 > 1.5 * t1, "t1={t1:.0} t4={t4:.0}");
    }

    /// Predicts the same output length for everything; a short one makes
    /// admission overcommit KV, so decode growth has to preempt.
    struct Fixed(u32);
    impl tdpipe_predictor::OutputLenPredictor for Fixed {
        fn predict(&self, _r: &tdpipe_workload::Request) -> u32 {
            self.0
        }
    }

    #[test]
    fn swap_preemption_conserves_and_moves_kv() {
        use crate::config::PreemptionMode;
        let t = trace(400);
        let run = |mode| {
            let mut cfg = TdPipeConfig::default();
            cfg.engine.preemption = mode;
            TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(1), cfg)
                .unwrap()
                .run(&t, &Fixed(1))
                .report
        };
        let rec = run(PreemptionMode::Recompute);
        let swap = run(PreemptionMode::Swap);
        // Both serve everything; the waste shows up in different columns.
        assert_eq!(rec.output_tokens, swap.output_tokens);
        assert!(rec.recomputed_tokens > 0, "pressure scenario must evict");
        assert_eq!(rec.swapped_tokens, 0);
        assert_eq!(swap.recomputed_tokens, 0);
        assert!(swap.swapped_tokens > 0);
        // Swap moves each evicted token out and back in.
        assert_eq!(swap.swapped_tokens % 2, 0);
    }

    #[test]
    fn session_run_completes_and_conserves() {
        use tdpipe_workload::SessionConfig;
        let s = SessionConfig::small(24, 7).generate();
        let out = sim_run(&engine(2), Workload::Sessions(&s), &OraclePredictor);
        assert_eq!(out.report.num_requests, s.len());
        assert!(out.report.makespan > 0.0);
        assert!(out.report.output_tokens > 0);
    }

    #[test]
    fn session_runs_are_deterministic() {
        use tdpipe_workload::SessionConfig;
        let s = SessionConfig::small(32, 11).generate();
        let a = sim_run(&engine(2), Workload::Sessions(&s), &OraclePredictor);
        let b = sim_run(&engine(2), Workload::Sessions(&s), &OraclePredictor);
        assert_eq!(a.report, b.report);
    }

    /// Reuse shaves exactly the claimed prefixes off the prefill bill and
    /// changes no answer; reuse off and a zero retention budget are the
    /// same run, byte for byte; and the journal's session events agree
    /// with the session counters, on a roomy config and on one whose
    /// memory pressure drops retained prefixes.
    #[test]
    fn session_reuse_prefills_only_fresh_suffixes() {
        use tdpipe_workload::{ArrivalProcess, SessionConfig};
        let roomy = SessionConfig::small(40, 3).generate();
        // Every session opens at once: live work crowds out retained KV.
        let crowded = SessionConfig {
            arrival: ArrivalProcess::Offline,
            ..SessionConfig::small(400, 3)
        };
        let roomy = (ModelSpec::llama2_13b(), NodeSpec::l20(2), roomy, false);
        let pressed = (ModelSpec::llama2_70b(), NodeSpec::a100(2), crowded.generate(), true);
        for (model, node, s, pressure) in [roomy, pressed] {
            let resumed_prefix: u64 = s
                .turns
                .iter()
                .filter(|t| t.prev.is_some())
                .map(|t| u64::from(t.shared_prefix))
                .sum();
            assert!(resumed_prefix > 0, "trace needs multi-turn sessions");
            let run = |reuse: bool, frac: f64| {
                let mut cfg = TdPipeConfig::default();
                cfg.engine.session_reuse = reuse;
                cfg.engine.session_retain_frac = frac;
                cfg.engine.record_metrics = true;
                cfg.engine.record_trace = true;
                let e = TdPipeEngine::new(model.clone(), &node, cfg).unwrap();
                sim_run(&e, Workload::Sessions(&s), &OraclePredictor)
            };
            let frac = TdPipeConfig::default().engine.session_retain_frac;
            let on = run(true, frac);
            let off = run(false, frac);
            // Same answers either way; reuse only changes the prefill bill.
            assert_eq!(on.report.output_tokens, off.report.output_tokens);
            assert!(
                on.report.input_tokens < off.report.input_tokens,
                "reuse must shave first-prefill cost: on={} off={}",
                on.report.input_tokens,
                off.report.input_tokens
            );
            // The shave is exactly the claimed shared-prefix tokens.
            let counter = |o: &RunOutcome, name: &str| o.metrics.scalar(name).unwrap() as usize;
            let saved = counter(&on, "session_reused_tokens_total") as u64;
            assert!(counter(&on, "session_reuse_hits_total") > 0);
            assert_eq!(off.report.input_tokens, on.report.input_tokens + saved);
            // A zero budget retains nothing: the very run reuse off makes.
            let zero = run(true, 0.0);
            let json = |o: &RunOutcome| {
                (
                    serde_json::to_string(&o.report).unwrap(),
                    serde_json::to_string(&o.metrics).unwrap(),
                    serde_json::to_string(&o.journal).unwrap(),
                )
            };
            assert!(json(&zero) == json(&off), "a zero budget must be reuse off");
            assert_eq!(counter(&off, "session_kv_retains_total"), 0);
            // The journal agrees with the counters, event kind by kind.
            for o in [&on, &off] {
                let count = |kind: fn(&TraceEvent) -> bool| {
                    o.journal.events().iter().filter(|e| kind(&e.event)).count()
                };
                let retains = count(|e| matches!(e, TraceEvent::SessionRetain { .. }));
                let drops = count(|e| matches!(e, TraceEvent::SessionDrop { .. }));
                let hits = count(|e| matches!(e, TraceEvent::SessionReuseHit { .. }));
                let misses = count(|e| matches!(e, TraceEvent::SessionReuseMiss { .. }));
                assert_eq!(retains, counter(o, "session_kv_retains_total"));
                assert_eq!(drops, counter(o, "session_kv_drops_total"));
                assert_eq!(hits, counter(o, "session_reuse_hits_total"));
                assert_eq!(misses, counter(o, "session_reuse_misses_total"));
            }
            let drops = counter(&on, "session_kv_drops_total");
            assert_eq!(drops > 0, pressure, "{drops} retained prefixes dropped");
        }
    }

    #[test]
    fn stealing_never_hurts_much() {
        let t = trace(400);
        let cfg = TdPipeConfig {
            work_stealing: false,
            ..TdPipeConfig::default()
        };
        let without = TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(4), cfg)
            .unwrap()
            .run(&t, &OraclePredictor)
            .report
            .throughput_total();
        let with = engine(4).run(&t, &OraclePredictor).report.throughput_total();
        assert!(with > 0.95 * without, "with={with:.0} without={without:.0}");
    }

    /// The packing walk is rebuilt only after the pending queue changes,
    /// not at every decode step or decode-phase start: online, each decode
    /// phase opens behind an admission and walks once, and the decisions
    /// that follow until §3.5 switches reuse that walk. Debug builds also
    /// check every cached estimate against the naive repack, so a missed
    /// admission invalidation fails here.
    #[test]
    fn estimate_cache_rebuilds_only_when_pending_changes() {
        let t = trace(300);
        let arrivals = tdpipe_workload::ArrivalProcess::Poisson {
            rate_per_s: 4.0,
            seed: 42,
        }
        .sample(t.len());
        let online = Workload::Requests {
            trace: &t,
            arrivals: &arrivals,
        };
        let eng = engine(4);
        let executor = Box::new(SimExecutor::new(
            eng.cost.num_stages(),
            eng.cfg.engine.transfer_mode,
            false,
        ));
        let mut probe = RunProbe::default();
        let out = eng
            .run_impl(online, &OraclePredictor, executor, &mut probe)
            .unwrap();
        let cache = probe.est_cache;
        assert_eq!(out.report, sim_run(&eng, online, &OraclePredictor).report);
        let decode_phases = out.phases.iter().filter(|p| p.phase == Phase::Decode).count() as u64;
        assert!(cache.rebuilds > 0, "the intensity switch priced prefill phases");
        assert!(
            cache.rebuilds < decode_phases,
            "rebuilds={} decode phases={decode_phases}",
            cache.rebuilds
        );
        let decisions = probe.decisions.decisions;
        assert!(
            2 * cache.rebuilds < decisions,
            "rebuilds={} decisions={decisions}",
            cache.rebuilds
        );
    }

    /// Online, a decode phase ends about as often as a request arrives,
    /// yet most residents stay in the same batch from one decode phase to
    /// the next: they stay banked in its cohort, so a switch joins, leaves
    /// and settles far fewer members than it has residents. (Re-banking
    /// every resident would cost a join and a leave per resident per
    /// decode phase.) At 6 req/s the run switches about once per request.
    #[test]
    fn phase_switches_touch_only_movers() {
        let t = trace(500);
        let arrivals = tdpipe_workload::ArrivalProcess::Poisson {
            rate_per_s: 6.0,
            seed: 42,
        }
        .sample(t.len());
        let online = Workload::Requests {
            trace: &t,
            arrivals: &arrivals,
        };
        let eng = engine(4);
        let mut probe = RunProbe::default();
        let out = eng
            .run_impl(online, &OraclePredictor, eng.sim_plane(), &mut probe)
            .unwrap();
        assert_eq!(out.report, sim_run(&eng, online, &OraclePredictor).report);
        let switches = out.report.phase_switches as usize;
        assert!(2 * switches > t.len(), "{switches} switches: the run must switch often");
        let SwitchWork { residents_at_open, cohort_ops } = probe.work;
        assert!(residents_at_open > 0, "the run opened decode phases");
        assert!(
            4 * cohort_ops < residents_at_open,
            "{cohort_ops} cohort operations for {residents_at_open} residents at decode-phase opens"
        );
    }

    /// §3.5 is asked only once the queue's head has arrived, so a switch
    /// out of a decode phase that still has residents always finds a
    /// request to admit: no such prefill phase ends on an arrival stop
    /// with nothing admitted, and a 2 req/s run no longer drains and
    /// refills the pipeline several times per request.
    #[test]
    fn decode_switches_wait_for_an_arrived_head() {
        let t = trace(300);
        let arrivals = tdpipe_workload::ArrivalProcess::Poisson {
            rate_per_s: 2.0,
            seed: 42,
        }
        .sample(t.len());
        let online = Workload::Requests {
            trace: &t,
            arrivals: &arrivals,
        };
        let mut cfg = TdPipeConfig::default();
        cfg.engine.record_trace = true;
        let eng = TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(4), cfg).unwrap();
        let out = sim_run(&eng, online, &OraclePredictor);
        // Residents from the journal: admissions in, finishes and
        // evictions out.
        let (mut live, mut switched_out_of_decode, mut checked) = (0i64, false, 0);
        for e in out.journal.events() {
            match e.event {
                TraceEvent::PrefillAdmit { .. } => live += 1,
                TraceEvent::RequestFinish { .. } | TraceEvent::Evict { .. } => live -= 1,
                TraceEvent::PhaseSwitch { from, .. } => {
                    switched_out_of_decode = from == Phase::Decode && live > 0;
                    checked += usize::from(switched_out_of_decode);
                }
                TraceEvent::PrefillStop { reason, admitted } if switched_out_of_decode => {
                    assert!(
                        !(reason == PrefillStopReason::Arrival && admitted == 0),
                        "a prefill phase opened at t={} with {live} residents admitted nothing",
                        e.t
                    );
                }
                _ => {}
            }
        }
        assert!(checked > 0, "the run switched out of decode phases with residents");
        let switches = out.report.phase_switches as usize;
        assert!(switches <= 2 * t.len(), "{switches} switches for {} requests", t.len());
    }

    /// Swap preemption under heavy overcommit: some prefill phases admit
    /// only swap-ins, and the decode phase after one prices a pending
    /// queue whose old head is gone. The debug-build cross-check against
    /// the naive repack fails here if a swap-in leaves the estimate cache
    /// valid.
    #[test]
    fn swap_ins_invalidate_the_estimate_cache() {
        let mut cfg = TdPipeConfig::default();
        cfg.engine.preemption = PreemptionMode::Swap;
        let out = TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(1), cfg)
            .unwrap()
            .run(&trace(800), &Fixed(200));
        assert!(out.report.swapped_tokens > 0, "the scenario must swap");
    }

    /// Swap-ins can admit the rest of the pending queue on their own,
    /// leaving the prefill packer an empty batch and an empty queue.
    #[test]
    fn swap_ins_may_drain_the_pending_queue() {
        let mut cfg = TdPipeConfig::default();
        cfg.engine.preemption = PreemptionMode::Swap;
        let t = trace(200);
        let arrivals = tdpipe_workload::ArrivalProcess::Poisson {
            rate_per_s: 4.0,
            seed: 42,
        }
        .sample(t.len());
        let e = TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(1), cfg).unwrap();
        let online = Workload::Requests {
            trace: &t,
            arrivals: &arrivals,
        };
        let out = sim_run(&e, online, &Fixed(1));
        assert_eq!(out.report.num_requests, 200);
        assert!(out.report.swapped_tokens > 0, "the scenario must swap");
    }

    /// What from-scratch estimate walks to the pool's capacity (the walk
    /// before it became lazy) would cover.
    #[derive(Default)]
    pub(super) struct FullWalks {
        /// Batches, summed over decisions.
        pub(super) batches: u64,
        /// Positions, summed over the walks started (one per decision
        /// after the queue changed).
        pub(super) walk_positions: u64,
    }

    /// A run through [`TdPipeEngine::run_impl`] with its work probe,
    /// checked to report exactly what [`TdPipeEngine::try_run`] does.
    fn probed_run(e: &TdPipeEngine, work: Workload<'_>) -> (RunOutcome, RunProbe) {
        let mut probe = RunProbe::default();
        probe.decisions.full_walks = Some(FullWalks::default());
        let out = e.run_impl(work, &OraclePredictor, e.sim_plane(), &mut probe).unwrap();
        assert_eq!(out.report, sim_run(e, work, &OraclePredictor).report);
        (out, probe)
    }

    /// Release `succ`, arriving at `at`, at time `now` from a queue in the
    /// order `pending` over requests with the given arrivals. Returns the
    /// queue after the release and the work it took.
    fn released(
        arrivals: &[f64],
        pending: &[usize],
        succ: usize,
        now: f64,
        at: f64,
    ) -> (Vec<usize>, QueueWork) {
        let t = trace(arrivals.len());
        let work = Workload::Requests { trace: &t, arrivals };
        let mut pool = RequestPool::for_workload(&work, |r| r.output_len);
        let split = |released: bool| -> VecDeque<u32> {
            pending
                .iter()
                .filter(|&&i| arrivals[i].is_finite() == released)
                .map(|&i| queued(i))
                .collect()
        };
        let (mut queue, mut unreleased) = (split(true), split(false));
        let mut work = QueueWork::default();
        release(
            &mut queue,
            &mut unreleased,
            &mut pool,
            succ,
            at,
            now,
            &mut work,
        );
        assert_eq!(pool.arrival(succ), at);
        let order = queue.into_iter().chain(unreleased).map(|i| i as usize);
        (order.collect(), work)
    }

    /// A successor whose release time ties pending arrivals lands after
    /// them, as a back-to-front walk that stops at the first arrival at
    /// or before it would place it.
    #[test]
    fn released_successor_lands_after_tied_arrivals() {
        let inf = f64::INFINITY;
        let arrivals = [0.5, 5.0, 5.0, 7.0, inf, inf];
        let (queue, work) = released(&arrivals, &[0, 1, 2, 3, 4, 5], 4, 1.0, 5.0);
        assert_eq!(queue, [0, 1, 2, 4, 3, 5]);
        assert_eq!(work.releases, 1);
    }

    /// The successor can be the tail's last entry, and can arrive after
    /// every released request: it then lands just before the tail.
    #[test]
    fn released_successor_may_be_the_last_tail_entry() {
        let inf = f64::INFINITY;
        let arrivals = [0.5, 2.0, 3.0, inf, inf, inf];
        // Request 1 was evicted back to the front of the arrived head.
        let (queue, _) = released(&arrivals, &[1, 0, 2, 3, 4, 5], 5, 2.0, 9.0);
        assert_eq!(queue, [1, 0, 2, 5, 3, 4]);
        // With no think time it lands at the end of the arrived head.
        let (queue, _) = released(&arrivals, &[1, 0, 2, 3, 4, 5], 5, 2.5, 2.5);
        assert_eq!(queue, [1, 0, 5, 2, 3, 4]);
    }

    /// With only the unreleased tail pending, the successor becomes the
    /// queue's head.
    #[test]
    fn released_successor_heads_a_queue_of_unreleased_turns() {
        let inf = f64::INFINITY;
        let arrivals = [0.0, 0.0, inf, inf, inf, inf];
        let (queue, work) = released(&arrivals, &[2, 3, 4, 5], 4, 3.0, 4.0);
        assert_eq!(queue, [4, 2, 3, 5]);
        let (queue, _) = released(&arrivals, &[3], 3, 3.0, 4.0);
        assert_eq!(queue, [3]);
        // Two binary searches over at most four entries.
        assert!(work.release_probes <= 2 * 3, "{} probes", work.release_probes);
    }

    /// Online, a new estimate walk starts only after the pending queue
    /// changed (admissions popping its front, evictions pushing onto it),
    /// and it packs and prices only as far as each decision reads.
    /// Against the from-scratch walks to the pool's capacity that every
    /// changed queue once cost, it reads fewer than half the requests.
    /// Debug builds check every estimate against the naive repack.
    #[test]
    fn online_estimate_walks_reprice_only_what_changed() {
        let t = trace(2_000);
        let arrivals = poisson(t.len(), 2.0);
        let online = Workload::Requests {
            trace: &t,
            arrivals: &arrivals,
        };
        let (_, probe) = probed_run(&engine(4), online);
        let cache = probe.est_cache;
        let full = probe.decisions.full_walks.unwrap();
        assert!(
            cache.walked > 0,
            "the intensity switch priced prefill phases"
        );
        assert!(
            2 * cache.walked < full.walk_positions,
            "{} of {} read",
            cache.walked,
            full.walk_positions
        );
    }

    /// Closed loop, each finished turn releases its successor with two
    /// binary searches, O(log n) probes; and the estimate walks read fewer
    /// than half the requests from-scratch walks would, although releases
    /// land mid-queue and grant reuse discounts.
    #[test]
    fn session_releases_and_estimate_walks_touch_only_what_changed() {
        let s = tdpipe_workload::SessionConfig::small(800, 5).generate();
        let (_, probe) = probed_run(&engine(4), Workload::Sessions(&s));
        let QueueWork { releases, release_probes } = probe.queue;
        let resumed = s.turns.iter().filter(|t| t.prev.is_some()).count() as u64;
        assert_eq!(releases, resumed, "every resumed turn is released once");
        let log_n = u64::from(usize::BITS - s.len().leading_zeros());
        assert!(
            release_probes <= releases * 2 * (log_n + 1),
            "{release_probes} probes for {releases} releases of {} turns",
            s.len()
        );
        let cache = probe.est_cache;
        let full = probe.decisions.full_walks.unwrap();
        assert!(
            2 * cache.walked < full.walk_positions,
            "{} of {} read",
            cache.walked,
            full.walk_positions
        );
    }

    /// `n` Poisson arrivals at `rate_per_s`.
    fn poisson(n: usize, rate_per_s: f64) -> Vec<f64> {
        tdpipe_workload::ArrivalProcess::Poisson {
            rate_per_s,
            seed: 42,
        }
        .sample(n)
    }

    /// TD-Pipe with session reuse on L20 or A100 GPUs, with the metrics
    /// plane and the journal on or off.
    fn reuse_engine(node: NodeSpec, metrics: bool, journal: bool) -> TdPipeEngine {
        let mut cfg = TdPipeConfig::default();
        cfg.engine.session_reuse = true;
        cfg.engine.record_metrics = metrics;
        cfg.engine.record_trace = journal;
        TdPipeEngine::new(ModelSpec::llama2_13b(), &node, cfg).unwrap()
    }

    /// Observers do not choose the decision code: with the metrics plane
    /// on, a run settles the same §3.5 decisions by the same shortcuts as
    /// an unobserved run and reports the same bytes, closed loop and open
    /// loop; and a traced run journals every certified decision, and only
    /// those, with the certificate's estimate (`l_cap` as its longest
    /// job). Debug builds also check every decision against the naive
    /// repack.
    #[test]
    fn observers_settle_decisions_like_unobserved_runs() {
        let s = tdpipe_workload::SessionConfig::small(400, 9).generate();
        let t = trace(2_000);
        let arrivals = poisson(t.len(), 2.0);
        let online = Workload::Requests {
            trace: &t,
            arrivals: &arrivals,
        };
        let counts = |p: &RunProbe| {
            let d = &p.decisions;
            (d.decisions, d.saturated, d.certified)
        };
        for work in [Workload::Sessions(&s), online] {
            let node = || NodeSpec::l20(4);
            let (plain, plain_probe) = probed_run(&reuse_engine(node(), false, false), work);
            let (metered, metered_probe) = probed_run(&reuse_engine(node(), true, false), work);
            let json = |o: &RunOutcome| serde_json::to_string(&o.report).unwrap();
            assert_eq!(json(&plain), json(&metered));
            let (decisions, saturated, certified) = counts(&plain_probe);
            assert_eq!(counts(&metered_probe), (decisions, saturated, certified));
            assert!(
                2 * (certified + saturated) > decisions,
                "shortcuts settle most"
            );
            let (traced, traced_probe) = probed_run(&reuse_engine(node(), false, true), work);
            assert_eq!(counts(&traced_probe), (decisions, saturated, certified));
            let l_cap = traced_probe.est_cache.latency_cap;
            let journalled = traced
                .journal
                .events()
                .iter()
                .filter(|e| {
                    matches!(e.event, TraceEvent::SwitchDecision { est_longest, .. }
                        if est_longest == l_cap)
                })
                .count() as u64;
            assert_eq!(journalled, certified);
        }
    }

    /// Closed loop, at least 90% of decisions are settled by a certified
    /// switch (or saturated spatial intensity), and the walks behind them
    /// read a small fraction of the batches the from-scratch walks to the
    /// pool's capacity hold: the certificate needs the phase length of a
    /// few batches to beat spatial intensity, so the fraction is smaller
    /// the more batches the pool holds — under 5% on A100s, under 10% on
    /// the L20s' smaller pool.
    #[test]
    fn session_decisions_are_certified_from_the_first_batches() {
        let s = tdpipe_workload::SessionConfig::small(800, 5).generate();
        for (node, percent) in [(NodeSpec::a100(4), 5), (NodeSpec::l20(4), 10)] {
            let (_, probe) = probed_run(&reuse_engine(node, false, false), Workload::Sessions(&s));
            let d = &probe.decisions;
            let full = d.full_walks.as_ref().unwrap().batches;
            let walked = probe.est_cache.walked_batches;
            assert!(
                10 * (d.certified + d.saturated) >= 9 * d.decisions,
                "{} certified and {} saturated of {} decisions",
                d.certified,
                d.saturated,
                d.decisions
            );
            assert!(
                100 * walked < percent * full,
                "{walked} batches walked of {full}"
            );
        }
    }

    /// `l_cap` bounds the latency of a single oversize request's batch, a
    /// batch filling the token budget, and 4,096 one-token sequences.
    #[test]
    fn latency_cap_bounds_extreme_batches() {
        let eng = engine(4);
        let cap_of = |reqs: &[Request]| {
            let t = Trace::new(reqs.to_vec());
            let pool = RequestPool::for_workload(&Workload::offline(&t), |r| r.output_len);
            eng.prefill_latency_cap(&pool)
        };
        let mut reqs = trace(16).requests().to_vec();
        let cap = cap_of(&reqs);
        let latency = |lens: &[u32]| eng.cost.prefill_job(lens).latency();
        let budget = PREFILL_TOKEN_BUDGET;
        for lens in [
            vec![budget],
            vec![budget / 2; 2],
            vec![1; budget as usize],
            vec![64; 64],
        ] {
            assert!(latency(&lens) <= cap, "{} sequences", lens.len());
        }
        // One request far above the budget: its own prefill, even after
        // generating all but its last token, stays under the cap.
        reqs[3].input_len = 3 * budget;
        reqs[3].output_len = 900;
        let cap = cap_of(&reqs);
        assert!(latency(&[3 * budget + 899]) <= cap);
        assert!(latency(&[1; 3 * 4096 + 899]) <= cap);
        // The cap is not vacuous: a full-budget batch comes within 25%.
        assert!(latency(&[budget]) > 0.8 * cap_of(&reqs[..3]));
    }
}
