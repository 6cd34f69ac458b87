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
//! The phase-switch bubble the paper talks about is not modelled — it
//! *emerges*: the first decode batches queue behind the last prefill jobs
//! at every stage, and the FIFO recurrence of
//! [`tdpipe_sim::PipelineSim`] produces exactly the idle gaps a real
//! pipeline would show.

use crate::batch::{partition_even_into, DecodeBatch};
use crate::cohort::{DecodeCohort, DecodeStepper, StepEnv, StepHooks};
use crate::config::{D2pPolicy, P2dPolicy, PreemptionMode, TdPipeConfig};
use crate::control::ControlPlane;
use crate::cost::PpCost;
use crate::estimate::PrefillEstimateCache;
use crate::exec::{ExecError, PipelineExecutor, SimExecutor};
use crate::greedy::GreedyPrefillPlanner;
use crate::intensity::{IntensityComparator, PrefillPhaseEstimate};
use crate::metrics::EngineMetrics;
use crate::plan::MemoryPlan;
use crate::request::{Lifecycle, RequestPool};
use crate::steal::WorkStealer;
use std::collections::VecDeque;
use tdpipe_hw::{DecodeProfile, NodeSpec};
use tdpipe_kvcache::{BlockAllocator, OccupancyTrace, Phase, SessionRetainer};
use tdpipe_metrics::MetricsSnapshot;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::OutputLenPredictor;
use tdpipe_sim::{RunReport, SegmentKind, Timeline};
use tdpipe_trace::{AdmitReason, EvictMode, FlightRecorder, PrefillStopReason, TraceEvent};
use tdpipe_workload::{SessionTrace, SessionTurn, Trace};

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
    /// KV occupancy over time (paper Fig. 12; empty unless
    /// `record_occupancy`, which defaults on).
    pub occupancy: OccupancyTrace,
    /// Chronological phase log.
    pub phases: Vec<PhaseRecord>,
    /// Scheduling decision journal (disabled unless `record_trace`).
    pub journal: FlightRecorder,
    /// Metrics-plane snapshot (empty unless `record_metrics`).
    pub metrics: MetricsSnapshot,
}

/// Closed-loop session state threaded through one engine run (only for
/// [`TdPipeEngine::run_sessions`]; `None` keeps every other entry point
/// bit-identical).
struct SessionRun<'a> {
    /// Per-request turn linkage, parallel to the request pool.
    turns: &'a [SessionTurn],
    /// The idle-prefix retention pool (budget already sized; zero budget
    /// when reuse is disabled, so `retain` always refuses).
    retainer: SessionRetainer,
    /// Whether finished turns retain KV at all
    /// ([`crate::config::EngineConfig::session_reuse`]).
    reuse: bool,
    /// Paged block size, for block math on retained allocations.
    block_size: u64,
    /// Resumed turns admitted with no retained prefix (full prefill).
    reuse_misses: u64,
}

/// Drop idle retained session prefixes (oldest first, never the one
/// reserved for `keep`) until the allocator has `target` free blocks or
/// the retention pool runs dry. Returns whether the target was met.
/// Dropping revokes the dropped successors' prefill discounts, which
/// changes pending prefill costs — hence the estimate-cache invalidation.
fn reclaim_retained(
    sess: &mut SessionRun<'_>,
    target: u64,
    keep: Option<u64>,
    now: f64,
    alloc: &mut BlockAllocator,
    pool: &mut RequestPool,
    est_cache: &mut PrefillEstimateCache,
    journal: &mut FlightRecorder,
) -> bool {
    while alloc.free_blocks() < target {
        let Some((succ, e)) = sess.retainer.pop_oldest_except(keep) else {
            return false;
        };
        // analyzer: allow(no-expect) — a retained entry's donor keeps its
        // allocator slot live until the entry is claimed or dropped here.
        alloc.free(e.donor).expect("retained donor resident");
        pool.clear_reuse_discount(succ as usize);
        journal.record(
            now,
            TraceEvent::SessionDrop {
                request: succ,
                tokens: e.tokens,
            },
        );
        est_cache.invalidate();
    }
    true
}

/// TD-Pipe's side of the shared decode step ([`DecodeStepper::step`]):
/// finishers may retain their KV for a session successor, idle retained
/// prefixes yield before any live member is evicted, victims follow the
/// configured preemption mode, and the planner, estimate cache, journal
/// and metrics follow every finisher and victim.
struct TdStepHooks<'r, 's> {
    engine: &'r TdPipeEngine,
    sess: &'r mut Option<SessionRun<'s>>,
    planner: &'r mut GreedyPrefillPlanner,
    est_cache: &'r mut PrefillEstimateCache,
    journal: &'r mut FlightRecorder,
    metrics: &'r mut EngineMetrics,
    /// Host-link time this step's swap-outs hold the batch back.
    swap_out_delay: f64,
}

impl StepHooks for TdStepHooks<'_, '_> {
    /// Retire a finished request's KV: retain it for the session
    /// successor when reuse is on and the budget allows (evicting older
    /// retained prefixes first), free it otherwise; then release the
    /// successor's closed-loop arrival (finish + think time), moving it
    /// from the pending queue's unreleased tail to its sorted slot.
    fn retire(&mut self, m: usize, env: &mut StepEnv<'_>) -> u64 {
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
        journal.record(
            now,
            TraceEvent::RequestFinish {
                request: pool.id(m).0,
                arrival: pool.arrival(m),
                first_token: pool.first_token_at(m),
            },
        );
        let Some(s) = self.sess.as_mut() else {
            // analyzer: allow(no-expect) — every batch member was allocated
            // at admission and eviction removes it from its batch, so a
            // finisher is resident.
            return alloc.free(m as u64).expect("finished request resident");
        };
        let next = s.turns[m].next;
        // analyzer: allow(no-expect) — finishers are resident (see above).
        let held = alloc.tokens_of(m as u64).expect("finished request resident");
        let mut retained = false;
        if s.reuse {
            if let Some(succ) = next {
                let blocks = held.div_ceil(s.block_size);
                // Make room in the retention budget oldest-first; a budget
                // too small for this prefix leaves `fits` false and we fall
                // back to freeing.
                while !s.retainer.fits(blocks) {
                    let Some((other, e)) = s.retainer.pop_oldest() else {
                        break;
                    };
                    // analyzer: allow(no-expect) — retained donors stay
                    // resident until claimed or dropped here.
                    alloc.free(e.donor).expect("retained donor resident");
                    pool.clear_reuse_discount(other as usize);
                    journal.record(
                        now,
                        TraceEvent::SessionDrop {
                            request: other,
                            tokens: e.tokens,
                        },
                    );
                }
                if s.retainer.retain(succ as u64, m as u64, held, blocks) {
                    // The successor will prefill only its fresh suffix
                    // while the prefix survives. `held` is the prior
                    // transcript minus the final sampled token, so it is
                    // strictly below the successor's prompt length.
                    pool.set_reuse_discount(succ as usize, held as u32);
                    journal.record(
                        now,
                        TraceEvent::SessionRetain {
                            request: succ as u64,
                            tokens: held,
                        },
                    );
                    retained = true;
                }
            }
        }
        if !retained {
            // analyzer: allow(no-expect) — still resident: nothing freed it.
            alloc.free(m as u64).expect("finished request resident");
        }
        if let Some(succ) = next {
            let succ = succ as usize;
            let at = now + s.turns[succ].think_s;
            pool.set_arrival(succ, at);
            // The successor has never arrived (infinite arrival), so it
            // still sits in the pending queue's unreleased tail — scan from
            // the back, where it lives.
            let p = pending
                .iter()
                .rposition(|&i| i == succ)
                // analyzer: allow(no-expect) — unreleased turns are never
                // admitted (their arrival is infinite), so the successor
                // must be pending.
                .expect("unreleased turn pending");
            pending.remove(p);
            // Sorted re-insertion among released-but-future arrivals. The
            // walk stops before the arrived head region (arrivals <= now
            // <= at), so the eviction-ordered head layout is preserved.
            let mut pos = pending.len();
            while pos > 0 && pool.arrival(pending[pos - 1]) > at {
                pos -= 1;
            }
            pending.insert(pos, succ);
            self.est_cache.invalidate();
        }
        held
    }

    fn reclaim(&mut self, target: u64, env: &mut StepEnv<'_>) -> bool {
        match self.sess.as_mut() {
            Some(s) => reclaim_retained(
                s,
                target,
                None,
                env.now,
                env.alloc,
                env.pool,
                self.est_cache,
                self.journal,
            ),
            None => false,
        }
    }

    fn preempt(&mut self, victim: usize, env: &mut StepEnv<'_>) {
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
        self.journal.record(
            env.now,
            TraceEvent::Evict {
                mode,
                victim: env.pool.id(victim).0,
            },
        );
        self.metrics.on_evict(mode);
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
    /// Plan an engine; fails when some pipeline stage cannot hold its
    /// weights plus at least one KV block.
    pub fn new(
        model: ModelSpec,
        node: &NodeSpec,
        cfg: TdPipeConfig,
    ) -> Result<Self, InfeasibleConfig> {
        let partition = if cfg.lm_head_aware_partition {
            PpCost::lm_head_aware_partition(&model, node, 256)
        } else {
            tdpipe_model::PipelinePartition::balanced(&model, node.num_gpus)
        };
        let plan = MemoryPlan::pipeline_with(
            &model,
            node,
            &partition,
            cfg.engine.block_size,
            cfg.engine.mem_reserve_bytes,
        )
        .ok_or_else(|| InfeasibleConfig {
            reason: format!(
                "{} does not fit {}x{} pipeline stages",
                model.name, node.num_gpus, node.gpu.name
            ),
        })?;
        let cost = PpCost::with_partition(model, node, partition);
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
        kv_volume / self.cfg.engine.host_link_bw
    }

    /// Build the offline decode profile for the spatial-intensity lookup,
    /// using the trace's average context length as the representative
    /// profiling context (the paper profiles offline the same way).
    fn build_profile(&self, trace: &Trace) -> DecodeProfile {
        let n = trace.len().max(1) as u64;
        let avg_ctx = ((trace.total_input_tokens() + trace.total_output_tokens() / 2) / n).max(16);
        let avg_total =
            ((trace.total_input_tokens() + trace.total_output_tokens()) / n).max(16);
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

    /// Run the engine over a trace, consulting `predictor` for output
    /// lengths (pass [`tdpipe_predictor::OraclePredictor`] for the
    /// perfect-information ablation).
    ///
    /// # Panics
    /// Panics if some request cannot fit in KV memory even alone.
    pub fn run<P: OutputLenPredictor + ?Sized>(&self, trace: &Trace, predictor: &P) -> RunOutcome {
        self.run_with_arrivals(trace, &[], predictor)
    }

    /// Run with per-request arrival times (the online extension; an empty
    /// slice means everything is queued at t = 0, the paper's setting).
    /// Arrival times must be non-decreasing and aligned with the trace;
    /// latency metrics come out arrival-relative.
    ///
    /// # Panics
    /// Panics if some request cannot fit in KV memory even alone, or if
    /// `arrivals` is non-empty but misaligned/unsorted.
    pub fn run_with_arrivals<P: OutputLenPredictor + ?Sized>(
        &self,
        trace: &Trace,
        arrivals: &[f64],
        predictor: &P,
    ) -> RunOutcome {
        let e = &self.cfg.engine;
        let executor = Box::new(SimExecutor::new(
            self.cost.num_stages(),
            e.transfer_mode,
            e.record_timeline,
        ));
        self.run_on(trace, arrivals, predictor, executor)
    }

    /// Run the engine against an arbitrary execution plane — the
    /// deterministic simulator ([`SimExecutor`]) or the threaded
    /// hierarchy-controller (`tdpipe-runtime`'s executor). This is the
    /// single scheduling loop: only the execution substrate varies.
    ///
    /// # Panics
    /// As [`Self::run_with_arrivals`], plus on an execution-plane
    /// failure — use [`Self::try_run_on`] to observe those as structured
    /// errors instead.
    pub fn run_on<P: OutputLenPredictor + ?Sized>(
        &self,
        trace: &Trace,
        arrivals: &[f64],
        predictor: &P,
        sim: Box<dyn PipelineExecutor>,
    ) -> RunOutcome {
        // analyzer: allow(no-panic) — the infallible convenience surface:
        // its documented contract is to panic with the execution-plane
        // root cause; fallible callers use `try_run_on`.
        self.try_run_on(trace, arrivals, predictor, sim).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run a closed-loop multi-turn session workload: each resumed turn
    /// arrives only after its predecessor finishes plus think time, and —
    /// with [`crate::config::EngineConfig::session_reuse`] on — a resumed
    /// turn whose retained session KV survived prefills only its fresh
    /// suffix. Latencies are measured from each turn's *released* arrival.
    ///
    /// # Panics
    /// As [`Self::run_with_arrivals`], plus on an execution-plane failure
    /// and on a session trace failing its structural invariants.
    pub fn run_sessions<P: OutputLenPredictor + ?Sized>(
        &self,
        sessions: &SessionTrace,
        predictor: &P,
    ) -> RunOutcome {
        let e = &self.cfg.engine;
        let executor = Box::new(SimExecutor::new(
            self.cost.num_stages(),
            e.transfer_mode,
            e.record_timeline,
        ));
        let arrivals = sessions.initial_arrivals();
        let est_cache = &mut PrefillEstimateCache::default();
        self.run_impl(&sessions.trace, &arrivals, predictor, executor, Some(sessions), est_cache)
            // analyzer: allow(no-panic) — the infallible convenience
            // surface, like `run_on`: panics with the execution-plane
            // root cause.
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Fallible [`Self::run_on`]: an execution-plane failure (worker
    /// panic, lost stage message, wedged shutdown) surfaces as a clean
    /// [`ExecError`] instead of a panic or a hang — the waits inside a
    /// supervised plane (`tdpipe-runtime`) are all deadline-bounded.
    ///
    /// # Panics
    /// As [`Self::run_with_arrivals`] (scheduling preconditions only).
    pub fn try_run_on<P: OutputLenPredictor + ?Sized>(
        &self,
        trace: &Trace,
        arrivals: &[f64],
        predictor: &P,
        sim: Box<dyn PipelineExecutor>,
    ) -> Result<RunOutcome, ExecError> {
        let est_cache = &mut PrefillEstimateCache::default();
        self.run_impl(trace, arrivals, predictor, sim, None, est_cache)
    }

    /// The single scheduling loop behind every entry point; `sessions`
    /// threads the closed-loop linkage (arrival release, KV retention)
    /// through it, and `None` leaves all of that behind one branch so
    /// non-session runs stay bit-identical. `est_cache` starts empty; it is
    /// the caller's so tests can read its work counters afterwards.
    fn run_impl<P: OutputLenPredictor + ?Sized>(
        &self,
        trace: &Trace,
        arrivals: &[f64],
        predictor: &P,
        mut sim: Box<dyn PipelineExecutor>,
        sessions: Option<&SessionTrace>,
        est_cache: &mut PrefillEstimateCache,
    ) -> Result<RunOutcome, ExecError> {
        assert!(
            arrivals.is_empty() || arrivals.len() == trace.len(),
            "one arrival per request"
        );
        assert!(
            arrivals.windows(2).all(|w| w[1] >= w[0]),
            "arrivals must be sorted"
        );
        let n_stages = self.cost.num_stages() as usize;
        let e = &self.cfg.engine;
        let mut pool =
            RequestPool::with_arrivals(trace.requests(), arrivals, |r| predictor.predict(r));
        let mut alloc = BlockAllocator::new(self.plan.kv_blocks, self.plan.block_size);
        alloc.reserve_ids(pool.len());
        // Closed-loop session state: the retention pool gets the
        // configured fraction of KV blocks (zero when reuse is off, so
        // every finished turn frees normally).
        let mut sess: Option<SessionRun<'_>> = sessions.map(|st| {
            assert_eq!(st.len(), trace.len(), "session turn table matches trace");
            st.check_invariants();
            let frac = e.session_retain_frac.clamp(0.0, 1.0);
            // analyzer: allow(lossy-float-cast) — retain_frac is clamped
            // to [0,1] and kv_blocks ≤ 2^32, so the product is exact
            // enough and stays well inside u64.
            let budget = (self.plan.kv_blocks as f64 * frac) as u64;
            let mut retainer =
                SessionRetainer::new(if e.session_reuse { budget } else { 0 });
            retainer.reserve_ids(st.len());
            SessionRun {
                turns: &st.turns,
                retainer,
                reuse: e.session_reuse,
                block_size: self.plan.block_size as u64,
                reuse_misses: 0,
            }
        });
        let mut occupancy = OccupancyTrace::new();
        // The flight recorder (ISSUE 4): disabled is a single-branch no-op
        // per `record` call, so default runs stay bit-identical. Sized for
        // one admit + stop per request plus slack for phase machinery.
        let mut journal = if e.record_trace {
            // Admit + stop + launch + done + finish per request, plus
            // slack for phase machinery and recompute episodes.
            FlightRecorder::with_capacity(pool.len() * 8 + 64)
        } else {
            FlightRecorder::disabled()
        };
        // The metrics plane (ISSUE 5): same gating discipline as the
        // recorder — disabled is a single-branch no-op per update.
        let mut metrics = EngineMetrics::new(e.record_metrics);
        let comparator = IntensityComparator::new(self.build_profile(trace));
        let mut planner =
            GreedyPrefillPlanner::new(self.cfg.future_points(), self.plan.token_capacity());
        planner.reserve_ids(pool.len());

        let mut ctrl = ControlPlane::new(e);
        let mut pending: VecDeque<usize> = (0..pool.len()).collect();
        // Admission order drives batch partitioning and eviction priority.
        let mut admission_seq: Vec<u64> = vec![0; pool.len()];
        let mut next_seq: u64 = 0;
        let mut residents: Vec<usize> = Vec::new();

        // Charge the (tiny) predictor cost up front, like the paper's
        // §4.4.1 accounting.
        let mut now = pool.len() as f64 * predictor.per_request_overhead();
        let mut phase_switches: u32 = 0;
        // analyzer: allow(lossy-float-cast) — watermark ∈ [0,1] and
        // kv_blocks ≤ 2^32, so the ceil stays well inside u64 and the
        // round-up direction is the conservative one for admission.
        let watermark_blocks = (self.plan.kv_blocks as f64 * e.watermark).ceil() as u64;

        let mut phases: Vec<PhaseRecord> = Vec::new();
        // Prefill completions are consumed lazily (the executor reports in
        // launch order); each entry indexes a member range in
        // `prefill_members` plus the occupancy at launch.
        const PREFILL_TAG: u64 = 1 << 32;
        let mut prefill_seq: u64 = 0;
        // Hot-loop scratch, reused across phases: the steady-state engine
        // loop allocates nothing per prefill batch or decode step.
        let mut batch: Vec<usize> = Vec::new();
        let mut seq_lens: Vec<u32> = Vec::new();
        let mut prefill_members: Vec<usize> = Vec::new();
        let mut prefill_meta: Vec<(usize, usize, f64)> = Vec::new();
        let mut job = crate::cost::StagedJob::default();
        // Running per-batch context totals (`DecodeBatch::total_ctx`
        // maintained incrementally) and their sum over stored batches.
        let mut batch_ctx: Vec<u64> = vec![0; n_stages];
        let mut inflight: VecDeque<usize> = VecDeque::new();
        // Per-switch scratch, reused so the steady-state engine allocates
        // nothing at a phase transition: the decode batches (member vectors
        // keep their capacity), their initial sizes, and the work stealer.
        let mut batches: Vec<DecodeBatch> = Vec::new();
        let mut initial_sizes: Vec<usize> = Vec::new();
        let mut stealer: Option<WorkStealer> = None;
        // Event-driven decode cohorts, one per in-flight batch, stepped by
        // the decode step every scheduler shares: each banks its batch's
        // per-step work (tokens generated, KV extends, finish retirement,
        // planner advances) as arithmetic, settled per member only when a
        // member leaves its batch — see `crate::cohort`.
        let mut cohorts: Vec<DecodeCohort> = (0..n_stages)
            .map(|_| DecodeCohort::new(self.plan.block_size))
            .collect();
        let mut stepper = DecodeStepper::new(pool.len());
        while !pool.all_finished() {
            // ===================== PREFILL PHASE =====================
            let phase_t0 = now;
            let mut admitted = 0u64;
            // The planner is maintained incrementally across phases
            // (admit/remove/advance); in debug builds, rebuild it from
            // scratch and check the usage grids agree exactly.
            #[cfg(debug_assertions)]
            {
                let mut oracle = GreedyPrefillPlanner::new(
                    self.cfg.future_points(),
                    self.plan.token_capacity(),
                );
                for &i in &residents {
                    oracle.admit(i, pool.resident_tokens(i), pool.predicted_remaining(i));
                }
                debug_assert_eq!(
                    oracle.usage(),
                    planner.usage(),
                    "incremental planner drifted from a from-scratch rebuild"
                );
            }
            let mut launched = 0u64;
            let mut admitted_any = false;
            prefill_members.clear();
            prefill_meta.clear();
            'prefill: while !pending.is_empty() {
                let stop = match self.cfg.p2d {
                    P2dPolicy::Greedy => planner.would_overflow(),
                    P2dPolicy::FixedOccupancy(r) => alloc.occupancy() >= r,
                };
                if stop && admitted_any {
                    journal.record(
                        now,
                        TraceEvent::PrefillStop {
                            reason: PrefillStopReason::Overflow,
                            admitted,
                        },
                    );
                    metrics.on_prefill_stop(PrefillStopReason::Overflow);
                    break;
                }
                // Pack the next prefill batch up to the token budget.
                batch.clear();
                seq_lens.clear();
                let mut batch_tokens: u32 = 0;
                // Why the packing loop below halted (journal; the loop
                // running the queue dry leaves the default).
                let mut pack_stop = PrefillStopReason::Exhausted;
                while let Some(&idx) = pending.front() {
                    // Online extension: a request can only be prefilled
                    // after it has arrived.
                    if pool.arrival(idx) > now + launched as f64 * e.engine_overhead {
                        pack_stop = PrefillStopReason::Arrival;
                        break;
                    }
                    // Swap-preempted requests re-enter via a host-link
                    // transfer, not a prefill job.
                    if pool.swapped(idx) {
                        let tokens = pool.resident_tokens(idx);
                        let needed =
                            tokens.div_ceil(self.plan.block_size as u64);
                        if alloc.free_blocks() < needed + watermark_blocks {
                            // Idle retained session prefixes yield to live
                            // re-admissions before the packer gives up.
                            let met = match sess.as_mut() {
                                Some(s) => reclaim_retained(
                                    s,
                                    needed + watermark_blocks,
                                    None,
                                    now,
                                    &mut alloc,
                                    &mut pool,
                                    est_cache,
                                    &mut journal,
                                ),
                                None => false,
                            };
                            if !met {
                                pack_stop = PrefillStopReason::Memory;
                                break;
                            }
                        }
                        // analyzer: allow(no-expect) — guarded two lines
                        // up: `free_blocks() >= needed + watermark` makes
                        // this allocation infallible.
                        alloc.allocate(idx as u64, tokens).expect("checked");
                        pending.pop_front();
                        est_cache.invalidate();
                        pool.note_swap_in(idx, tokens);
                        now += self.swap_seconds(tokens);
                        admission_seq[idx] = next_seq;
                        next_seq += 1;
                        residents.push(idx);
                        planner.admit(idx, tokens, pool.predicted_remaining(idx));
                        admitted_any = true;
                        admitted += 1;
                        journal.record(
                            now,
                            TraceEvent::PrefillAdmit {
                                request: pool.id(idx).0,
                                tokens,
                                reason: AdmitReason::SwapIn,
                            },
                        );
                        metrics.on_prefill_admit(AdmitReason::SwapIn, tokens);
                        continue;
                    }
                    // `t` is what the prefill must *compute* (fresh suffix
                    // only on a session reuse hit); `full` is what the
                    // request *occupies* once resident. Equal except on a
                    // hit, where the donor's retained blocks come back
                    // first, so they count toward the admission check.
                    let t = pool.prefill_tokens(idx);
                    if !batch.is_empty() && batch_tokens + t > e.prefill_token_budget {
                        pack_stop = PrefillStopReason::Budget;
                        break;
                    }
                    let full = pool.resident_tokens(idx);
                    let needed = full.div_ceil(self.plan.block_size as u64);
                    let donor_blocks = sess
                        .as_ref()
                        .and_then(|s| s.retainer.peek(idx as u64))
                        .map_or(0, |c| c.blocks);
                    let target = (needed + watermark_blocks).saturating_sub(donor_blocks);
                    if alloc.free_blocks() < target {
                        // Reclaim idle retained prefixes (never this
                        // request's own) before giving up on memory.
                        let met = match sess.as_mut() {
                            Some(s) => reclaim_retained(
                                s,
                                target,
                                Some(idx as u64),
                                now,
                                &mut alloc,
                                &mut pool,
                                est_cache,
                                &mut journal,
                            ),
                            None => false,
                        };
                        if !met {
                            pack_stop = PrefillStopReason::Memory;
                            break; // memory admission stop
                        }
                    }
                    // Session accounting at the moment admission is
                    // certain: claim the retained prefix (hit) or record
                    // the miss for a first-time resumed turn.
                    if let Some(s) = sess.as_mut() {
                        if let Some(c) = s.retainer.claim(idx as u64) {
                            // analyzer: allow(no-expect) — retained donors
                            // stay resident until claimed here or dropped.
                            alloc.free(c.donor).expect("retained donor resident");
                            journal.record(
                                now,
                                TraceEvent::SessionReuseHit {
                                    request: pool.id(idx).0,
                                    tokens: c.tokens,
                                },
                            );
                        } else if s.turns[idx].prev.is_some() && pool.evictions(idx) == 0 {
                            s.reuse_misses += 1;
                            journal.record(
                                now,
                                TraceEvent::SessionReuseMiss {
                                    request: pool.id(idx).0,
                                },
                            );
                        }
                    }
                    // analyzer: allow(no-expect) — guarded above: the
                    // admission check reserved `needed + watermark`
                    // free blocks (counting the just-freed donor), so
                    // this allocation cannot fail.
                    alloc.allocate(idx as u64, full).expect("admission check guaranteed fit");
                    pending.pop_front();
                    est_cache.invalidate();
                    batch.push(idx);
                    seq_lens.push(t);
                    batch_tokens += t;
                    if sess.is_some() {
                        // The discount was consumed by this admission; a
                        // later eviction re-prefills at full cost.
                        pool.clear_reuse_discount(idx);
                    }
                }
                if batch.is_empty() {
                    // Memory full, head not yet arrived, a single request
                    // exceeds capacity, or swap-ins emptied the queue.
                    if let Some(&idx) = pending.front() {
                        let head_arrived =
                            pool.arrival(idx) <= now + launched as f64 * e.engine_overhead;
                        if head_arrived && !admitted_any && residents.is_empty() {
                            // analyzer: allow(no-panic) — unschedulable
                            // input (one request larger than the whole KV
                            // pool): a precondition documented under
                            // `# Panics` on `run_with_arrivals`, not a
                            // runtime failure.
                            panic!(
                                "request {} ({} tokens) exceeds KV capacity ({} tokens)",
                                pool.id(idx),
                                pool.resident_tokens(idx),
                                self.plan.token_capacity()
                            );
                        }
                    }
                    // pack_stop is Arrival or Memory when the packer broke
                    // on its very first candidate, Exhausted when swap-ins
                    // admitted the rest of the queue.
                    journal.record(
                        now,
                        TraceEvent::PrefillStop {
                            reason: pack_stop,
                            admitted,
                        },
                    );
                    metrics.on_prefill_stop(pack_stop);
                    break 'prefill;
                }
                admitted_any = true;
                self.cost.prefill_job_into(&seq_lens, &mut job);
                let ready = now + launched as f64 * e.engine_overhead;
                launched += 1;
                prefill_seq += 1;
                sim.launch(
                    ready,
                    &job.exec,
                    &job.xfer,
                    SegmentKind::Prefill,
                    PREFILL_TAG + prefill_seq,
                );
                // Span anchor: records the packing clock, carries the
                // executor-ready instant (the two differ by the serialised
                // launch overhead — the per-request prefill-wait span).
                journal.record(
                    now,
                    TraceEvent::PrefillLaunch {
                        seq: prefill_seq,
                        batch: batch.len(),
                        tokens: batch_tokens as u64,
                        ready,
                    },
                );
                metrics.on_prefill_batch(batch.len(), batch_tokens as u64);
                let start = prefill_members.len();
                prefill_members.extend_from_slice(&batch);
                prefill_meta.push((start, prefill_members.len(), alloc.occupancy()));
                for (&idx, &t) in batch.iter().zip(&seq_lens) {
                    pool.note_prefill(idx, t);
                    // The planner tracks *residency*, not prefill work:
                    // on a session reuse hit the two differ (`t` is the
                    // fresh suffix; the request occupies its full
                    // prompt). Identical to `t` on every other path.
                    planner.admit(idx, pool.resident_tokens(idx), pool.predicted_remaining(idx));
                    admission_seq[idx] = next_seq;
                    next_seq += 1;
                    residents.push(idx);
                    admitted += 1;
                    if journal.is_enabled() || metrics.is_enabled() {
                        let reason = if pool.evictions(idx) > 0 {
                            AdmitReason::Recompute
                        } else {
                            AdmitReason::FirstPrefill
                        };
                        journal.record(
                            now,
                            TraceEvent::PrefillAdmit {
                                request: pool.id(idx).0,
                                tokens: t as u64,
                                reason,
                            },
                        );
                        metrics.on_prefill_admit(reason, t as u64);
                    }
                }
                journal.record(
                    now,
                    TraceEvent::PrefillStop {
                        reason: pack_stop,
                        admitted,
                    },
                );
                metrics.on_prefill_stop(pack_stop);
            }
            // Collect this phase's prefill completions: first-token stamps
            // and Fig. 12 occupancy samples.
            let mut prefill_exec_end = now;
            // Completion stamps are monotone (the pipeline retires jobs in
            // launch order); `done_t` guards the journal's time order
            // against any float jitter in the completion times.
            let mut done_t = now;
            for &(start, end, occ) in prefill_meta.iter() {
                let (tag, finish) = sim.try_next_completion()?;
                debug_assert!(tag > PREFILL_TAG, "prefills complete before decodes");
                done_t = done_t.max(finish);
                for &idx in &prefill_members[start..end] {
                    pool.note_first_token(idx, finish);
                    journal.record(
                        done_t,
                        TraceEvent::PrefillDone {
                            request: pool.id(idx).0,
                        },
                    );
                }
                if e.record_occupancy {
                    occupancy.push(finish, occ, Phase::Prefill);
                }
                metrics.sample(finish, occ, 0, 0, pending.len());
                prefill_exec_end = prefill_exec_end.max(finish);
            }
            now += launched as f64 * e.engine_overhead;
            phase_switches += 1; // prefill → decode
            phases.push(PhaseRecord {
                phase: Phase::Prefill,
                start: phase_t0,
                end: prefill_exec_end,
                work_items: admitted,
                finished: 0,
            });
            let phase_t0 = prefill_exec_end;
            let mut decode_steps = 0u64;

            // ===================== DECODE PHASE ======================
            if residents.is_empty() {
                // Nothing runnable. With arrivals this legitimately means
                // the system is idle until the next request shows up:
                // fast-forward and try the prefill phase again.
                let next_arrival = pending
                    .iter()
                    .map(|&i| pool.arrival(i))
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    next_arrival.is_finite() && next_arrival > now,
                    "stuck: nothing resident, nothing arriving (pending={}, finished={}/{})",
                    pending.len(),
                    pool.finished(),
                    pool.len()
                );
                // Declared starvation: the bubble ledger attributes every
                // device's idleness over [now, next_arrival] to arrivals.
                journal.record(
                    now,
                    TraceEvent::ArrivalWait {
                        until: next_arrival,
                    },
                );
                now = next_arrival;
                phases.pop(); // drop the empty prefill phase record
                phase_switches -= 1;
                continue;
            }
            // Journalled after the empty-residents check so the idle
            // fast-forward path above produces no spurious switch events.
            journal.record(
                prefill_exec_end,
                TraceEvent::PhaseSwitch {
                    from: Phase::Prefill,
                    to: Phase::Decode,
                },
            );
            // Metrics-side phase close-out lives *after* the idle
            // fast-forward `continue` above, mirroring the journal: the
            // popped empty prefill record never reaches the registry.
            metrics.on_phase_end(Phase::Prefill, phases[phases.len() - 1].start, prefill_exec_end);
            // Partition in admission order (§3.4: equal batches, one per
            // GPU). `residents` is kept in admission order by construction —
            // prefill appends in increasing `admission_seq` and the
            // phase-end retain preserves order — so no per-switch sort.
            debug_assert!(
                residents
                    .windows(2)
                    .all(|w| admission_seq[w[0]] < admission_seq[w[1]]),
                "residents must stay in admission order"
            );
            partition_even_into(&residents, n_stages, &mut batches);
            initial_sizes.clear();
            initial_sizes.extend(batches.iter().map(DecodeBatch::len));
            let phase_start_count: usize = initial_sizes.iter().sum();
            if self.cfg.work_stealing {
                match stealer.as_mut() {
                    Some(st) => st.reset(&initial_sizes),
                    None => stealer = Some(WorkStealer::new(&initial_sizes)),
                }
            }
            let mut finished_this_phase = 0usize;
            let mut switching = false;

            debug_assert!(inflight.is_empty());
            for (bid, b) in batches.iter().enumerate() {
                // Scan each batch once at phase start; from here on
                // `batch_ctx` is maintained incrementally. Bank every
                // member into the batch's cohort: one join here replaces
                // the per-step per-member walk for its whole residency.
                batch_ctx[bid] = b.total_ctx(&pool);
                let coh = &mut cohorts[bid];
                coh.reset();
                for &m in &b.members {
                    stepper.join(coh, m, &pool);
                }
                if b.is_empty() {
                    continue;
                }
                self.cost.decode_job_into(b.len(), batch_ctx[bid], &mut job);
                let ready = now + inflight.len() as f64 * e.engine_overhead;
                sim.launch(ready, &job.exec, &job.xfer, SegmentKind::Decode, bid as u64);
                metrics.on_decode_step(b.len());
                inflight.push_back(bid);
            }
            // Context-token sum over the batches currently stored in
            // `batches` (the in-processing batch is subtracted while its
            // members are taken out, mirroring the old per-step rescan).
            let mut stored_ctx: u64 = batch_ctx.iter().sum();

            while let Some(bid) = inflight.pop_front() {
                let (tag, finish) = sim.try_next_completion()?;
                debug_assert_eq!(tag, bid as u64, "completions follow launch order");
                now = finish;
                decode_steps += 1;
                let mut members = std::mem::take(&mut batches[bid].members);
                stored_ctx -= batch_ctx[bid];
                // 1) Step the batch: one token per member; the finished
                //    retire (retaining KV for a session successor where
                //    allowed), the survivors' KV grows, and on overflow
                //    idle retained prefixes yield before the newest members
                //    are preempted (§4.1). This is the decode step every
                //    scheduler shares, with TD-Pipe's session, planner and
                //    observer effects as its hooks.
                let mut ctx = batch_ctx[bid];
                let mut hooks = TdStepHooks {
                    engine: self,
                    sess: &mut sess,
                    planner: &mut planner,
                    est_cache: &mut *est_cache,
                    journal: &mut journal,
                    metrics: &mut metrics,
                    swap_out_delay: 0.0,
                };
                let finished_now = stepper.step(
                    &mut cohorts[bid],
                    &mut members,
                    &mut ctx,
                    &mut StepEnv {
                        pool: &mut pool,
                        alloc: &mut alloc,
                        pending: &mut pending,
                        admission_seq: &admission_seq,
                        now,
                    },
                    &mut hooks,
                );
                finished_this_phase += finished_now;
                now += hooks.swap_out_delay;
                // 2) Rebalance.
                if let Some(st) = stealer.as_mut() {
                    let epoch = cohorts[bid].epoch();
                    let moved = st.rebalance(&mut members, finished_now, &mut ctx, |m| {
                        // Banked members lag the pool by their banked
                        // steps; settled candidates (the withheld) read
                        // their pool state exactly.
                        pool.resident_tokens(m) + stepper.cm.pending(m, epoch) as u64
                    });
                    // Newly withheld members leave this batch's step
                    // cadence: settle their banked steps now. Supplements
                    // join it: bank them into this batch's cohort.
                    let wh = st.withheld();
                    for &m in &wh[wh.len() - moved.withheld..] {
                        let p = stepper.leave(&mut cohorts[bid], m, &mut pool, &mut alloc);
                        planner.advance(m, p);
                    }
                    for &m in &members[members.len() - moved.supplemented..] {
                        stepper.join(&mut cohorts[bid], m, &pool);
                    }
                    if moved.withheld > 0 {
                        journal.record(
                            now,
                            TraceEvent::StealWithhold {
                                n: moved.withheld,
                                target: moved.target,
                            },
                        );
                    }
                    if moved.supplemented > 0 {
                        journal.record(
                            now,
                            TraceEvent::StealSupplement {
                                n: moved.supplemented,
                                target: moved.target,
                            },
                        );
                    }
                    metrics.on_steal(moved.withheld, moved.supplemented);
                }
                if e.record_occupancy {
                    occupancy.push(now, alloc.occupancy(), Phase::Decode);
                }
                // 3) Decode→prefill decision.
                if !switching && !pending.is_empty() {
                    switching = match self.cfg.d2p {
                        D2pPolicy::Intensity => {
                            let live: usize =
                                members.len() + batches.iter().map(DecodeBatch::len).sum::<usize>();
                            let live_batches = inflight.len() + 1;
                            let mean_batch = (live / live_batches.max(1)).max(1);
                            // `stored_ctx` equals the old sum over stored
                            // batches (this batch's slot is empty here).
                            let mean_ctx = stored_ctx / live_batches.max(1) as u64;
                            self.cost
                                .decode_job_into(mean_batch, mean_ctx.max(1), &mut job);
                            let step = job.latency();
                            let est = est_cache.query(
                                &pending,
                                &pool,
                                &self.cost,
                                e.prefill_token_budget,
                                self.plan.token_capacity(),
                                alloc.free_blocks() * self.plan.block_size as u64,
                            );
                            // Debug cross-check: the memoized estimate must
                            // be bit-identical to the naive repack.
                            #[cfg(debug_assertions)]
                            {
                                let mut scratch = Vec::new();
                                let naive = self.estimate_prefill_phase(
                                    &pending,
                                    &pool,
                                    &alloc,
                                    &mut scratch,
                                );
                                debug_assert_eq!(
                                    est.longest_job.to_bits(),
                                    naive.longest_job.to_bits()
                                );
                                debug_assert_eq!(
                                    est.phase_len.to_bits(),
                                    naive.phase_len.to_bits()
                                );
                            }
                            let scores = comparator.decide(mean_batch, &est, step);
                            journal.record(
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
                            metrics.on_switch_decision(scores.spatial, scores.temporal);
                            scores.switch
                        }
                        D2pPolicy::FixedFinishRatio(r) => {
                            finished_this_phase as f64 >= r * phase_start_count as f64
                        }
                    };
                }
                // 4) Relaunch or retire the batch. If this is the last live
                //    batch and the stealer still withholds requests, absorb
                //    them — otherwise they would strand with no batch left
                //    to supplement.
                batches[bid].members = members;
                if !switching && inflight.is_empty() {
                    if let Some(st) = stealer.as_mut() {
                        for &m in st.withheld() {
                            ctx += pool.resident_tokens(m);
                            // Absorbed members rejoin this batch's cadence
                            // (they were settled when withheld).
                            stepper.join(&mut cohorts[bid], m, &pool);
                        }
                        st.take_withheld_into(&mut batches[bid].members);
                    }
                }
                batch_ctx[bid] = ctx;
                stored_ctx += ctx;
                if !switching && !batches[bid].is_empty() {
                    let b = &batches[bid];
                    self.cost.decode_job_into(b.len(), ctx, &mut job);
                    let ready = ctrl.process(now, b.len());
                    sim.launch(ready, &job.exec, &job.xfer, SegmentKind::Decode, bid as u64);
                    metrics.on_decode_step(b.len());
                    inflight.push_back(bid);
                }
            }

            // Settle the banked cohort state (pool tokens, KV residency,
            // planner advances) for members that ran to phase end — the
            // withheld were settled when they left their batch — then keep
            // the survivors: `residents` was never cleared, so retaining
            // the still-decoding entries preserves admission order for the
            // next partition.
            for (bid, b) in batches.iter().enumerate() {
                let coh = &mut cohorts[bid];
                for &m in &b.members {
                    let p = stepper.leave(coh, m, &mut pool, &mut alloc);
                    planner.advance(m, p);
                }
            }
            residents.retain(|&i| pool.lifecycle(i) == Lifecycle::Decoding);
            phases.push(PhaseRecord {
                phase: Phase::Decode,
                start: phase_t0,
                end: now,
                work_items: decode_steps,
                finished: finished_this_phase,
            });
            metrics.on_phase_end(Phase::Decode, phase_t0, now);
            if !pool.all_finished() {
                phase_switches += 1; // decode → prefill
                journal.record(
                    now,
                    TraceEvent::PhaseSwitch {
                        from: Phase::Decode,
                        to: Phase::Prefill,
                    },
                );
                assert!(
                    !pending.is_empty() || !residents.is_empty(),
                    "stuck: unfinished requests but nothing runnable"
                );
            }
        }

        pool.assert_conserved();
        let plane = sim.plane_stats();
        let (makespan, timeline) = sim.try_finish()?;
        // Device tracks for the Chrome export (only materialise when the
        // executor kept segments, i.e. `record_timeline` was on too).
        // Bounded: boundary idleness (pipeline warm-up before a device's
        // first segment, drain after its last) becomes explicit StageIdle
        // events, so attributed bubble seconds close against the makespan.
        journal.append_stage_events_bounded(&timeline, makespan);
        let report = RunReport {
            scheduler: "TD-Pipe".into(),
            makespan,
            num_requests: pool.len(),
            input_tokens: pool.input_tokens,
            output_tokens: pool.output_tokens,
            recomputed_tokens: pool.recomputed_tokens,
            swapped_tokens: pool.swapped_tokens,
            phase_switches,
            mean_utilization: timeline.mean_utilization(),
            latency: pool.latency_summary(),
        };
        if let Some(s) = &sess {
            debug_assert!(
                s.retainer.is_empty(),
                "all retained session prefixes should be claimed by run end"
            );
            metrics.on_session_summary(s.retainer.stats(), s.reuse_misses);
        }
        let metrics = metrics.finish(
            &report,
            alloc.stats(),
            self.plan.kv_blocks,
            &timeline,
            plane,
        );
        Ok(RunOutcome {
            report,
            timeline,
            occupancy,
            phases,
            journal,
            metrics,
        })
    }

    /// Price the hypothetical next prefill phase for the temporal-intensity
    /// estimate: pack pending requests (by their *predicted* total KV
    /// need) into the currently free capacity, batch them exactly like the
    /// real prefill packer, and report the longest job plus the phase
    /// length.
    ///
    /// The hot path uses the memoized [`PrefillEstimateCache`]; this naive
    /// walk is kept as the debug-build cross-check oracle.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn estimate_prefill_phase(
        &self,
        pending: &VecDeque<usize>,
        pool: &RequestPool,
        alloc: &BlockAllocator,
        scratch: &mut Vec<u32>,
    ) -> PrefillPhaseEstimate {
        let e = &self.cfg.engine;
        let mut free_tokens = alloc.free_blocks() * self.plan.block_size as u64;
        let mut longest = 0.0f64;
        let mut phase_len = 0.0f64;
        let seq_lens = scratch;
        seq_lens.clear();
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
        for &idx in pending {
            let t = pool.prefill_tokens(idx);
            let need = (t + pool.predicted_remaining(idx)) as u64;
            if need > free_tokens {
                break;
            }
            free_tokens -= need;
            if batch_tokens + t > e.prefill_token_budget && !seq_lens.is_empty() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_predictor::OraclePredictor;
    use tdpipe_workload::ShareGptLikeConfig;

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
        let out = engine(4).run(&trace(256), &OraclePredictor);
        assert!(out.occupancy.phase_runs() >= 2);
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
        let out = engine(2).run_sessions(&s, &OraclePredictor);
        assert_eq!(out.report.num_requests, s.len());
        assert!(out.report.makespan > 0.0);
        assert!(out.report.output_tokens > 0);
    }

    #[test]
    fn session_runs_are_deterministic() {
        use tdpipe_workload::SessionConfig;
        let s = SessionConfig::small(32, 11).generate();
        let a = engine(2).run_sessions(&s, &OraclePredictor);
        let b = engine(2).run_sessions(&s, &OraclePredictor);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn session_reuse_prefills_only_fresh_suffixes() {
        use tdpipe_workload::SessionConfig;
        let s = SessionConfig::small(40, 3).generate();
        let resumed_prefix: u64 = s
            .turns
            .iter()
            .filter(|t| t.prev.is_some())
            .map(|t| u64::from(t.shared_prefix))
            .sum();
        assert!(resumed_prefix > 0, "trace needs multi-turn sessions");
        let run = |reuse: bool| {
            let mut cfg = TdPipeConfig::default();
            cfg.engine.session_reuse = reuse;
            cfg.engine.record_metrics = true;
            cfg.engine.record_trace = true;
            TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(2), cfg)
                .unwrap()
                .run_sessions(&s, &OraclePredictor)
        };
        let on = run(true);
        let off = run(false);
        // Same answers either way; reuse only changes the prefill bill.
        assert_eq!(on.report.output_tokens, off.report.output_tokens);
        assert!(
            on.report.input_tokens < off.report.input_tokens,
            "reuse must shave first-prefill cost: on={} off={}",
            on.report.input_tokens,
            off.report.input_tokens
        );
        // The shave is exactly the claimed shared-prefix tokens.
        let hits = on.metrics.scalar("session_reuse_hits_total").unwrap();
        let saved = on.metrics.scalar("session_reused_tokens_total").unwrap() as u64;
        assert!(hits > 0.0);
        assert_eq!(off.report.input_tokens, on.report.input_tokens + saved);
        // Reuse off: retention budget is zero, so nothing ever hits.
        assert_eq!(off.metrics.scalar("session_reuse_hits_total"), Some(0.0));
        // The journal agrees with the counters.
        let hit_events = on
            .journal
            .events()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::SessionReuseHit { .. }))
            .count();
        assert_eq!(hit_events as f64, hits);
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

    /// Online, most prefill phases admit nothing (the queue's head has not
    /// arrived yet) and so keep the estimate cache valid across the phase
    /// switch: the packing walk is rebuilt less often than a decode phase
    /// starts. Debug builds also check every cached estimate against the
    /// naive repack, so a missed admission invalidation fails here.
    #[test]
    fn estimate_cache_rebuilds_only_when_pending_changes() {
        let t = trace(300);
        let arrivals = tdpipe_workload::ArrivalProcess::Poisson {
            rate_per_s: 2.0,
            seed: 42,
        }
        .sample(t.len());
        let eng = engine(4);
        let executor = Box::new(SimExecutor::new(
            eng.cost.num_stages(),
            eng.cfg.engine.transfer_mode,
            false,
        ));
        let mut cache = PrefillEstimateCache::default();
        let out = eng
            .run_impl(&t, &arrivals, &OraclePredictor, executor, None, &mut cache)
            .unwrap();
        assert_eq!(out.report, eng.run_with_arrivals(&t, &arrivals, &OraclePredictor).report);
        let decode_phases = out.phases.iter().filter(|p| p.phase == Phase::Decode).count() as u64;
        assert!(cache.rebuilds > 0, "the intensity switch priced prefill phases");
        assert!(
            cache.rebuilds < decode_phases,
            "rebuilds={} decode phases={decode_phases}",
            cache.rebuilds
        );
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
        let out = TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(1), cfg)
            .unwrap()
            .run_with_arrivals(&t, &arrivals, &Fixed(1));
        assert_eq!(out.report.num_requests, 200);
        assert!(out.report.swapped_tokens > 0, "the scenario must swap");
    }
}
