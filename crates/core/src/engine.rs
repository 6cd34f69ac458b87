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

use crate::batch::{even_range, partition_even_into, DecodeBatch};
use crate::cohort::{DecodeCohort, DecodeStepper, StepEnv, StepHooks};
use crate::config::{
    future_points, D2pPolicy, P2dPolicy, PreemptionMode, TdPipeConfig, BLOCK_SIZE, ENGINE_OVERHEAD,
    HOST_LINK_BW, PREFILL_TOKEN_BUDGET, WATERMARK,
};
use crate::cost::{PpCost, StagedJob};
use crate::driver::{drive, Close, Policy, RunState, Stall};
use crate::estimate::PrefillEstimateCache;
use crate::exec::{ExecError, PipelineExecutor, SimExecutor};
use crate::greedy::GreedyPrefillPlanner;
use crate::intensity::{IntensityComparator, PrefillPhaseEstimate};
use crate::plan::MemoryPlan;
use crate::request::{Lifecycle, RequestPool};
use crate::steal::WorkStealer;
use std::cmp::Ordering;
use std::collections::VecDeque;
use tdpipe_hw::{DecodeProfile, NodeSpec};
use tdpipe_kvcache::{BlockAllocator, OccupancyTrace, Phase, SessionRetainer};
use tdpipe_metrics::MetricsSnapshot;
use tdpipe_model::ModelSpec;
use tdpipe_predictor::OutputLenPredictor;
use tdpipe_sim::{RunReport, SegmentKind, Timeline};
use tdpipe_trace::{AdmitReason, EvictMode, FlightRecorder, PrefillStopReason, TraceEvent};
use tdpipe_workload::{SessionTurn, Trace, Workload};

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
    /// KV occupancy over time (paper Fig. 12).
    pub occupancy: OccupancyTrace,
    /// Chronological phase log.
    pub phases: Vec<PhaseRecord>,
    /// Scheduling decision journal (disabled unless `record_trace`).
    pub journal: FlightRecorder,
    /// Metrics-plane snapshot (empty unless `record_metrics`).
    pub metrics: MetricsSnapshot,
}

/// Closed-loop session state threaded through one engine run (only for
/// [`Workload::Sessions`]; `None` keeps open-loop runs bit-identical).
struct SessionRun<'a> {
    /// Per-request turn linkage, parallel to the request pool.
    turns: &'a [SessionTurn],
    /// The idle-prefix retention pool (budget already sized; zero budget
    /// when reuse is disabled, so `retain` always refuses).
    retainer: SessionRetainer,
    /// Resumed turns admitted with no retained prefix (full prefill).
    reuse_misses: u64,
}

/// Drop idle retained session prefixes (oldest first, never the one
/// reserved for `keep`) until the allocator has `target` free blocks or
/// the retention pool runs dry (at once outside session runs). Returns
/// whether the target was met.
/// Dropping revokes the dropped successors' prefill discounts, which
/// changes their prefill costs — hence the estimate cache forgets them.
fn reclaim_retained(
    sess: &mut Option<SessionRun<'_>>,
    target: u64,
    keep: Option<u64>,
    now: f64,
    alloc: &mut BlockAllocator,
    pool: &mut RequestPool,
    est_cache: &mut PrefillEstimateCache,
    journal: &mut FlightRecorder,
) -> bool {
    let Some(sess) = sess else {
        return false;
    };
    while alloc.free_blocks() < target {
        let Some((succ, e)) = sess.retainer.pop_oldest_except(keep) else {
            return false;
        };
        // analyzer: allow(no-expect) — a retained entry's donor keeps its
        // allocator slot live until the entry is claimed or dropped here.
        alloc.free(e.donor).expect("retained donor resident");
        pool.clear_reuse_discount(succ as usize);
        journal.record(now, TraceEvent::SessionDrop { request: succ, tokens: e.tokens });
        est_cache.forget(succ as usize);
    }
    true
}

/// Journal and count a prefill admission.
fn record_admit(run: &mut RunState, now: f64, idx: usize, tokens: u64, reason: AdmitReason) {
    let request = run.pool.id(idx).0;
    run.journal.record(now, TraceEvent::PrefillAdmit { request, tokens, reason });
    run.metrics.on_prefill_admit(reason, tokens);
}

/// Journal and count why prefill packing stopped.
fn record_stop(run: &mut RunState, now: f64, reason: PrefillStopReason, admitted: u64) {
    run.journal.record(now, TraceEvent::PrefillStop { reason, admitted });
    run.metrics.on_prefill_stop(reason);
}

/// Release session successor `succ`, which arrives at `at` (its
/// predecessor finished at `now`, plus think time): move it from the
/// pending queue's unreleased tail to its slot among the future arrivals
/// (the layout is on [`TdRun::pending`]). Two binary searches find the
/// positions a back-to-front walk would, ties included: the successor
/// lands after every pending request arriving at or before `at`.
fn release(
    pending: &mut VecDeque<usize>,
    pool: &mut RequestPool,
    succ: usize,
    at: f64,
    now: f64,
    work: &mut QueueWork,
) {
    debug_assert!(at >= now, "a successor arrives after its predecessor finished");
    debug_assert!(pending_layout_holds(pending, pool, now), "pending queue layout broken");
    let mut probes = 0;
    // Every finite arrival sorts before the tail, which ascends by index.
    let from = pending.binary_search_by(|&i| {
        probes += 1;
        if pool.arrival(i).is_finite() {
            Ordering::Less
        } else {
            i.cmp(&succ)
        }
    });
    debug_assert_eq!(
        from.ok(),
        pending.iter().rposition(|&i| i == succ),
        "binary search disagrees with the linear walk on the successor"
    );
    // analyzer: allow(no-expect) — unreleased turns are never admitted
    // (their arrival is infinite), so the successor is in the tail.
    let from = from.expect("unreleased turn pending");
    pending.remove(from);
    pool.set_arrival(succ, at);
    // The head arrived by `now <= at` and the rest ascends by arrival, so
    // `arrival <= at` partitions the queue.
    let to = pending.partition_point(|&i| {
        probes += 1;
        pool.arrival(i) <= at
    });
    debug_assert_eq!(
        to,
        pending.len() - pending.iter().rev().take_while(|&&i| pool.arrival(i) > at).count(),
        "binary search disagrees with the linear walk on the successor's slot"
    );
    pending.insert(to, succ);
    work.releases += 1;
    work.release_probes += probes;
}

/// Whether the pending queue has its three regions at time `now` (see
/// [`TdRun::pending`]): from the first request still to arrive on,
/// arrivals ascend, the unreleased (infinite) ones by request index.
fn pending_layout_holds(pending: &VecDeque<usize>, pool: &RequestPool, now: f64) -> bool {
    let future = pending.iter().position(|&i| pool.arrival(i) > now);
    let rest: Vec<usize> = pending.range(future.unwrap_or(pending.len())..).copied().collect();
    rest.windows(2).all(|w| {
        let (a, b) = (pool.arrival(w[0]), pool.arrival(w[1]));
        a < b || (a == b && (a.is_finite() || w[0] < w[1]))
    })
}

/// TD-Pipe's side of the shared decode step
/// ([`crate::cohort::DecodeStepper::step`]): finishers may retain their KV
/// for a session successor, idle retained prefixes yield before any live
/// member is evicted, victims follow the configured preemption mode, and
/// the planner, estimate cache and journal follow every finisher and
/// victim.
struct TdStepHooks<'r, 's> {
    engine: &'r TdPipeEngine,
    sess: &'r mut Option<SessionRun<'s>>,
    planner: &'r mut GreedyPrefillPlanner,
    est_cache: &'r mut PrefillEstimateCache,
    queue: &'r mut QueueWork,
    journal: &'r mut FlightRecorder,
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
        let (request, arrival) = (pool.id(m).0, pool.arrival(m));
        let first_token = pool.first_token_at(m);
        journal.record(now, TraceEvent::RequestFinish { request, arrival, first_token });
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
        // Whether finished turns retain KV at all
        // ([`crate::config::EngineConfig::session_reuse`]).
        if self.engine.cfg.engine.session_reuse {
            if let Some(succ) = next {
                let blocks = held.div_ceil(BLOCK_SIZE as u64);
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
                    self.est_cache.forget(other as usize);
                    let (request, tokens) = (other, e.tokens);
                    journal.record(now, TraceEvent::SessionDrop { request, tokens });
                }
                if s.retainer.retain(succ as u64, m as u64, held, blocks) {
                    // The successor will prefill only its fresh suffix
                    // while the prefix survives. `held` is the prior
                    // transcript minus the final sampled token, so it is
                    // strictly below the successor's prompt length.
                    pool.set_reuse_discount(succ as usize, held as u32);
                    self.est_cache.forget(succ as usize);
                    let (request, tokens) = (succ as u64, held);
                    journal.record(now, TraceEvent::SessionRetain { request, tokens });
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
            release(pending, pool, succ, at, now, self.queue);
            self.est_cache.invalidate();
        }
        held
    }

    fn reclaim(&mut self, target: u64, env: &mut StepEnv<'_>) -> bool {
        let (est_cache, journal) = (&mut *self.est_cache, &mut *self.journal);
        reclaim_retained(self.sess, target, None, env.now, env.alloc, env.pool, est_cache, journal)
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
        let partition = if cfg.lm_head_aware_partition {
            PpCost::lm_head_aware_partition(&model, node, 256)
        } else {
            tdpipe_model::PipelinePartition::balanced(&model, node.num_gpus)
        };
        let plan = MemoryPlan::pipeline_with(
            &model,
            node,
            &partition,
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
        kv_volume / HOST_LINK_BW
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
        let initial;
        let (trace, arrivals, sessions) = match work {
            Workload::Requests { trace, arrivals } => (trace, arrivals, None),
            Workload::Sessions(st) => {
                initial = st.initial_arrivals();
                (&st.trace, &initial[..], Some(st))
            }
        };
        let RunProbe { est_cache, work, queue } = probe;
        let e = &self.cfg.engine;
        let (journal, metrics) = (e.record_trace, e.record_metrics);
        let run = RunState::new(trace, arrivals, |r| predictor.predict(r), journal, metrics);
        let n = run.pool.len();
        let n_stages = self.cost.num_stages() as usize;
        let mut alloc = BlockAllocator::new(self.plan.kv_blocks, BLOCK_SIZE);
        alloc.reserve_ids(n);
        // Closed-loop session state: the retention pool gets the
        // configured fraction of KV blocks (zero when reuse is off, so
        // every finished turn frees normally).
        let sess = sessions.map(|st| {
            assert_eq!(st.len(), n, "session turn table matches trace");
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
                reuse_misses: 0,
            }
        });
        let mut planner = GreedyPrefillPlanner::new(future_points(), self.plan.token_capacity());
        planner.reserve_ids(n);
        let policy = TdRun {
            engine: self,
            est_cache,
            work,
            queue,
            sess,
            comparator: IntensityComparator::new(self.build_profile(trace)),
            alloc,
            planner,
            pending: (0..n).collect(),
            residents: Vec::new(),
            // analyzer: allow(lossy-float-cast) — watermark ∈ [0,1] and
            // kv_blocks ≤ 2^32, so the ceil stays well inside u64 and the
            // round-up direction is the conservative one for admission.
            watermark_blocks: (self.plan.kv_blocks as f64 * WATERMARK).ceil() as u64,
            occupancy: OccupancyTrace::new(),
            phases: Vec::new(),
            phase_switches: 0,
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
    ) -> PrefillPhaseEstimate {
        let mut free_tokens = alloc.free_blocks() * BLOCK_SIZE as u64;
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
        for &idx in pending {
            let t = pool.prefill_tokens(idx);
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
/// work, and the pending queue's release work.
#[derive(Default)]
struct RunProbe {
    est_cache: PrefillEstimateCache,
    work: SwitchWork,
    queue: QueueWork,
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
    /// Per launched batch: its range in `members` and the KV occupancy at
    /// launch.
    meta: Vec<(usize, usize, f64)>,
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
    sess: Option<SessionRun<'a>>,
    comparator: IntensityComparator,
    alloc: BlockAllocator,
    planner: GreedyPrefillPlanner,
    /// Requests waiting for (re-)admission, in three regions:
    /// 1. a *head* of arrived requests: evicted ones requeued at the front,
    ///    most recent eviction first, then arrived ones not yet admitted;
    /// 2. *future* arrivals, ascending by arrival time;
    /// 3. an *unreleased tail* of session turns whose predecessor has not
    ///    finished (infinite arrival), ascending by request index.
    ///
    /// Admission pops the head's front and eviction pushes onto it, O(1)
    /// each. A release binary-searches the tail for the successor and
    /// finds its slot with `partition_point(arrival <= at)` (the head has
    /// arrived and the rest ascends, so that predicate partitions the
    /// queue): O(log n) probes each, then one removal and one insertion,
    /// each moving the shorter side of the deque.
    /// Debug builds check the layout, and both positions against a linear
    /// walk, at every release.
    pending: VecDeque<usize>,
    /// Admitted requests still decoding, in admission order.
    residents: Vec<usize>,
    watermark_blocks: u64,
    occupancy: OccupancyTrace,
    phases: Vec<PhaseRecord>,
    phase_switches: u32,
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
            self.decode_done(run, plane, tag as usize, finish)
        }
    }

    fn stall(&mut self, run: &RunState, now: f64) -> Stall {
        let pool = &run.pool;
        let capacity = self.engine.plan.token_capacity();
        let arrivals = self.pending.iter().map(|&i| pool.arrival(i));
        Stall {
            oversize: self
                .pending
                .front()
                .filter(|&&i| pool.arrival(i) <= now)
                .map(|&i| (i, pool.resident_tokens(i), capacity)),
            next_arrival: arrivals.fold(f64::INFINITY, f64::min),
        }
    }

    fn close(self, run: &mut RunState) -> Close {
        let st = &run.stepper;
        self.work.cohort_ops = st.joins + st.leaves + st.settles;
        if let Some(s) = &self.sess {
            let drained = s.retainer.is_empty();
            debug_assert!(drained, "all retained session prefixes should be claimed by run end");
            run.metrics.on_session_summary(s.retainer.stats(), s.reuse_misses);
        }
        Close {
            scheduler: "TD-Pipe".into(),
            phase_switches: self.phase_switches,
            phases: self.phases,
            occupancy: self.occupancy,
            alloc: self.alloc.stats(),
            kv_blocks: self.engine.plan.kv_blocks,
            evict_mode: match self.engine.cfg.engine.preemption {
                PreemptionMode::Recompute => EvictMode::Recompute,
                PreemptionMode::Swap => EvictMode::Swap,
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
        let block_size = BLOCK_SIZE as u64;
        self.open = Some(Phase::Prefill);
        let pf = &mut self.prefill;
        pf.t0 = now;
        pf.members.clear();
        pf.meta.clear();
        pf.collected = 0;
        pf.admitted = 0;
        // Decode members stay banked across the switch, so the planner
        // lags their banked steps until this phase first reads it: after
        // its first launch, where the stop check starts to bind. Most
        // online prefill phases admit nothing and never get there. Of the
        // rest, most then find the queue head not yet arrived, which ends
        // the phase whatever the planner says; only observers record
        // which of the two stopped it, so an unobserved phase skips the
        // read.
        let observed = run.journal.is_enabled() || run.metrics.is_enabled();
        let mut settled = false;
        while let Some(&head) = self.pending.front() {
            if !settled && !pf.meta.is_empty() {
                let clock = now + pf.meta.len() as f64 * ENGINE_OVERHEAD;
                if !observed && run.pool.arrival(head) > clock {
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
                record_stop(run, now, PrefillStopReason::Overflow, pf.admitted);
                break;
            }
            // Pack the next prefill batch up to the token budget.
            pf.batch.clear();
            pf.seq_lens.clear();
            let mut batch_tokens: u32 = 0;
            // Why the packing loop below halted (journal; the loop running
            // the queue dry leaves the default).
            let mut pack_stop = PrefillStopReason::Exhausted;
            while let Some(&idx) = self.pending.front() {
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
                let t = run.pool.prefill_tokens(idx);
                if !swapped && !pf.batch.is_empty() && batch_tokens + t > PREFILL_TOKEN_BUDGET {
                    pack_stop = PrefillStopReason::Budget;
                    break;
                }
                let full = run.pool.resident_tokens(idx);
                let donor_blocks = self
                    .sess
                    .as_ref()
                    .and_then(|s| s.retainer.peek(idx as u64))
                    .map_or(0, |c| c.blocks);
                let needed = full.div_ceil(block_size) + self.watermark_blocks;
                let target = needed.saturating_sub(donor_blocks);
                // Idle retained session prefixes (never this request's own)
                // yield to live admissions before the packer gives up.
                if self.alloc.free_blocks() < target
                    && !reclaim_retained(
                        &mut self.sess,
                        target,
                        Some(idx as u64),
                        now,
                        &mut self.alloc,
                        &mut run.pool,
                        self.est_cache,
                        &mut run.journal,
                    )
                {
                    pack_stop = PrefillStopReason::Memory;
                    break;
                }
                if swapped {
                    // analyzer: allow(no-expect) — guarded above: the
                    // admission check reserved `needed + watermark` free
                    // blocks, so this allocation cannot fail.
                    self.alloc.allocate(idx as u64, full).expect("checked");
                    self.pending.pop_front();
                    self.est_cache.forget(idx);
                    run.pool.note_swap_in(idx, full);
                    now += eng.swap_seconds(full);
                    run.stamp_admission(idx);
                    self.residents.push(idx);
                    self.planner.admit(idx, full, run.pool.predicted_remaining(idx));
                    pf.admitted += 1;
                    record_admit(run, now, idx, full, AdmitReason::SwapIn);
                    continue;
                }
                // Session accounting at the moment admission is certain:
                // claim the retained prefix (hit) or record the miss for a
                // first-time resumed turn.
                if let Some(s) = self.sess.as_mut() {
                    let request = run.pool.id(idx).0;
                    if let Some(c) = s.retainer.claim(idx as u64) {
                        // analyzer: allow(no-expect) — retained donors stay
                        // resident until claimed here or dropped.
                        self.alloc.free(c.donor).expect("retained donor resident");
                        let tokens = c.tokens;
                        run.journal.record(now, TraceEvent::SessionReuseHit { request, tokens });
                    } else if s.turns[idx].prev.is_some() && run.pool.evictions(idx) == 0 {
                        s.reuse_misses += 1;
                        run.journal.record(now, TraceEvent::SessionReuseMiss { request });
                    }
                }
                // analyzer: allow(no-expect) — guarded above: the
                // admission check reserved `needed + watermark` free blocks
                // (counting the just-freed donor), so this allocation
                // cannot fail.
                self.alloc.allocate(idx as u64, full).expect("admission check guaranteed fit");
                self.pending.pop_front();
                self.est_cache.forget(idx);
                pf.batch.push(idx);
                pf.seq_lens.push(t);
                batch_tokens += t;
                if self.sess.is_some() {
                    // The discount was consumed by this admission; a later
                    // eviction re-prefills at full cost.
                    run.pool.clear_reuse_discount(idx);
                }
            }
            if pf.batch.is_empty() {
                // Memory full, head not yet arrived, or swap-ins emptied
                // the queue: pack_stop is Arrival or Memory when the packer
                // broke on its very first candidate, Exhausted when
                // swap-ins admitted the rest of the queue. (A request
                // larger than the whole pool leaves nothing resident and
                // surfaces in the driver's idle fast-forward.)
                record_stop(run, now, pack_stop, pf.admitted);
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
            run.journal.record(
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
            pf.meta.push((start, pf.members.len(), self.alloc.occupancy()));
            for (&idx, &t) in pf.batch.iter().zip(&pf.seq_lens) {
                run.pool.note_prefill(idx, t);
                // The planner tracks *residency*, not prefill work: on a
                // session reuse hit the two differ (`t` is the fresh
                // suffix; the request occupies its full prompt). Identical
                // to `t` on every other path.
                let pool = &run.pool;
                self.planner.admit(idx, pool.resident_tokens(idx), pool.predicted_remaining(idx));
                run.stamp_admission(idx);
                self.residents.push(idx);
                pf.admitted += 1;
                if run.journal.is_enabled() || run.metrics.is_enabled() {
                    let reason = if run.pool.evictions(idx) > 0 {
                        AdmitReason::Recompute
                    } else {
                        AdmitReason::FirstPrefill
                    };
                    record_admit(run, now, idx, t as u64, reason);
                }
            }
            record_stop(run, now, pack_stop, pf.admitted);
        }
        // Completions are collected lazily, in launch order.
        pf.end = now;
        now
    }

    /// The next prefill batch returned at `finish`: stamp its members'
    /// first tokens and take the Fig. 12 occupancy sample.
    fn prefill_done(&mut self, run: &mut RunState, finish: f64) {
        let pf = &mut self.prefill;
        let (start, end, occ) = pf.meta[pf.collected];
        pf.collected += 1;
        // Completion stamps are monotone (the pipeline retires jobs in
        // launch order); the running max guards the journal's time order
        // against any float jitter in the completion times.
        pf.end = pf.end.max(finish);
        for &idx in &pf.members[start..end] {
            run.pool.note_first_token(idx, finish);
            let request = run.pool.id(idx).0;
            run.journal.record(pf.end, TraceEvent::PrefillDone { request });
        }
        self.occupancy.push(finish, occ, Phase::Prefill);
        run.metrics.sample(finish, occ, 0, 0, self.pending.len());
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
        self.end_phase(run, record);
        self.open = Some(Phase::Decode);
        let dc = &mut self.decode;
        dc.steps = 0;
        dc.finished = 0;
        dc.switching = false;
        // Partition in admission order (§3.4: equal batches, one per GPU).
        // `residents` is kept in admission order by construction — prefill
        // appends in increasing `admission_seq` and the phase-end retain
        // preserves order — so no per-switch sort.
        debug_assert!(
            self.residents
                .windows(2)
                .all(|w| run.admission_seq[w[0]] < run.admission_seq[w[1]]),
            "residents must stay in admission order"
        );
        self.work.residents_at_open += self.residents.len() as u64;
        let n_stages = eng.cost.num_stages() as usize;
        // Each new batch is an admission-order interval of `residents`, so
        // whether a banked member stays in its batch is one range test.
        let seq = &run.admission_seq;
        for (bid, b) in dc.batches.iter().enumerate() {
            let span = &self.residents[even_range(self.residents.len(), n_stages, bid)];
            let stays = |m: usize| match (span.first(), span.last()) {
                (Some(&first), Some(&last)) => (seq[first]..=seq[last]).contains(&seq[m]),
                _ => false,
            };
            for &m in b.members.iter().filter(|&&m| !stays(m)) {
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
                // analyzer: allow(no-expect) — every batch member was
                // allocated at admission and is still decoding.
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
            sess: &mut self.sess,
            planner: &mut self.planner,
            est_cache: &mut *self.est_cache,
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
                admission_seq: &run.admission_seq,
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
                run.journal.record(now, TraceEvent::StealWithhold { n, target });
            }
            if moved.supplemented > 0 {
                let n = moved.supplemented;
                run.journal.record(now, TraceEvent::StealSupplement { n, target });
            }
            run.metrics.on_steal(moved.withheld, moved.supplemented);
        }
        self.occupancy.push(now, self.alloc.occupancy(), Phase::Decode);
        // 3) Decode→prefill decision.
        if !dc.switching && !self.pending.is_empty() {
            dc.switching = match eng.cfg.d2p {
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
                    let est = self.est_cache.query(
                        &self.pending,
                        &run.pool,
                        &eng.cost,
                        eng.plan.token_capacity(),
                        self.alloc.free_blocks() * BLOCK_SIZE as u64,
                    );
                    // Debug cross-check: the memoized estimate must be
                    // bit-identical to the naive repack.
                    #[cfg(debug_assertions)]
                    {
                        let (pending, pool) = (&self.pending, &run.pool);
                        let naive = eng.estimate_prefill_phase(pending, pool, &self.alloc);
                        debug_assert_eq!(est.longest_job.to_bits(), naive.longest_job.to_bits());
                        debug_assert_eq!(est.phase_len.to_bits(), naive.phase_len.to_bits());
                    }
                    let scores = self.comparator.decide(mean_batch, &est, step);
                    run.journal.record(
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
                    run.metrics.on_switch_decision(scores.spatial, scores.temporal);
                    scores.switch
                }
                D2pPolicy::FixedFinishRatio(r) => {
                    let start_count: usize = dc.initial_sizes.iter().sum();
                    dc.finished as f64 >= r * start_count as f64
                }
            };
        }
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
        self.end_phase(run, record);
        self.open = None;
    }

    /// Log a finished phase and, unless the run is over, switch to the
    /// other phase.
    fn end_phase(&mut self, run: &mut RunState, record: PhaseRecord) {
        self.phases.push(record);
        run.metrics.on_phase_end(record.phase, record.start, record.end);
        if !run.pool.all_finished() {
            self.phase_switches += 1;
            let from = record.phase;
            let to = if from == Phase::Prefill { Phase::Decode } else { Phase::Prefill };
            run.journal.record(record.end, TraceEvent::PhaseSwitch { from, to });
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
            let e = TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(2), cfg).unwrap();
            sim_run(&e, Workload::Sessions(&s), &OraclePredictor)
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
    }

    /// Online, decode phases end every few steps, yet most residents stay
    /// in the same batch from one decode phase to the next: they stay
    /// banked in its cohort, so a switch joins, leaves and settles far
    /// fewer members than it has residents. (Re-banking every resident
    /// would cost a join and a leave per resident per decode phase.)
    #[test]
    fn phase_switches_touch_only_movers() {
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
        let eng = engine(4);
        let mut probe = RunProbe::default();
        let out = eng
            .run_impl(online, &OraclePredictor, eng.sim_plane(), &mut probe)
            .unwrap();
        assert_eq!(out.report, sim_run(&eng, online, &OraclePredictor).report);
        let SwitchWork { residents_at_open, cohort_ops } = probe.work;
        assert!(residents_at_open > 0, "the run opened decode phases");
        assert!(
            4 * cohort_ops < residents_at_open,
            "{cohort_ops} cohort operations for {residents_at_open} residents at decode-phase opens"
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
        let e = TdPipeEngine::new(ModelSpec::llama2_13b(), &NodeSpec::l20(1), cfg).unwrap();
        let online = Workload::Requests {
            trace: &t,
            arrivals: &arrivals,
        };
        let out = sim_run(&e, online, &Fixed(1));
        assert_eq!(out.report.num_requests, 200);
        assert!(out.report.swapped_tokens > 0, "the scenario must swap");
    }

    /// A run through [`TdPipeEngine::run_impl`] with its work probe,
    /// checked to report exactly what [`TdPipeEngine::try_run`] does.
    fn probed_run(e: &TdPipeEngine, work: Workload<'_>) -> (RunOutcome, RunProbe) {
        let mut probe = RunProbe::default();
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
        let mut pool = RequestPool::with_arrivals(t.requests(), arrivals, |r| r.output_len);
        let mut queue: VecDeque<usize> = pending.iter().copied().collect();
        let mut work = QueueWork::default();
        release(&mut queue, &mut pool, succ, at, now, &mut work);
        assert_eq!(pool.arrival(succ), at);
        (queue.into_iter().collect(), work)
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

    /// Online, every rebuild of the estimate walk follows a small change
    /// to the pending queue (admissions popping its front, evictions
    /// pushing onto it), and the walk re-prices only the batches near the
    /// change: fewer than half the requests a from-scratch walk would.
    /// Debug builds check every estimate against the naive repack.
    #[test]
    fn online_estimate_walks_reprice_only_what_changed() {
        let t = trace(2_000);
        let arrivals = tdpipe_workload::ArrivalProcess::Poisson {
            rate_per_s: 2.0,
            seed: 42,
        }
        .sample(t.len());
        let online = Workload::Requests {
            trace: &t,
            arrivals: &arrivals,
        };
        let (_, probe) = probed_run(&engine(4), online);
        let cache = probe.est_cache;
        assert!(cache.walked > 0, "the intensity switch priced prefill phases");
        assert!(
            2 * cache.priced < cache.walked,
            "{} of {} walked positions re-priced",
            cache.priced,
            cache.walked
        );
    }

    /// Closed loop, each finished turn releases its successor with two
    /// binary searches, O(log n) probes; and the estimate walks re-price
    /// fewer than half the requests from-scratch walks would, although
    /// releases land mid-queue and grant reuse discounts.
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
        assert!(
            2 * cache.priced < cache.walked,
            "{} of {} walked positions re-priced",
            cache.priced,
            cache.walked
        );
    }
}
