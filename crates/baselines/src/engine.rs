//! The baseline policy, built at run time from two scheduling decisions.
//!
//! The paper's four baselines differ only in two scheduling decisions, so
//! each one is a [`BaselineEngine`] over a cell of the policy grid:
//!
//! * [`Layout`] fixes the lanes and the pricing. Tensor parallelism is one
//!   lane priced by [`TpCost`]; pipeline parallelism is `num_stages` lanes
//!   priced by [`PpCost`], with at most `PP_INFLIGHT_LIMIT` jobs in flight.
//! * [`Batching`] picks an idle lane's next job. Separate batching runs a
//!   prefill batch if one fits, else a decode step; hybrid batching runs
//!   the resident decodes plus prefill chunks up to `chunk_token_budget`.
//!
//! Everything else is shared with TD-Pipe: the lanes are a policy on the
//! one run loop (`tdpipe_core::driver`), which launches jobs through a
//! [`PipelineExecutor`] (the simulator by default, any plane through
//! [`BaselineEngine::try_run_on`]), steps every decode batch through the
//! one decode step, and returns a [`RunOutcome`].

use crate::common::{make_lanes, Lane};
use tdpipe_core::config::{EngineConfig, PREFILL_TOKEN_BUDGET};
use tdpipe_core::control::ControlPlane;
use tdpipe_core::cost::{PpCost, StagedJob, TpCost};
use tdpipe_core::driver::{drive, Close, Policy, RunState, Stall};
use tdpipe_core::engine::{InfeasibleConfig, RunOutcome};
use tdpipe_core::exec::{ExecError, PipelineExecutor, SimExecutor};
use tdpipe_core::plan::MemoryPlan;
use tdpipe_hw::NodeSpec;
use tdpipe_kvcache::{AllocStats, OccupancyTrace};
use tdpipe_model::ModelSpec;
use tdpipe_predictor::OutputLenPredictor;
use tdpipe_sim::SegmentKind;
use tdpipe_trace::EvictMode;
use tdpipe_workload::Trace;

/// Maximum micro-batches a pipeline-parallel baseline keeps in flight.
/// vLLM 0.5.x's virtual engines could overlap in principle, but its
/// Python driver processed outputs synchronously between steps, so in
/// practice only a shallow overlap was achieved — the root of the paper's
/// finding that PP baselines trail even TP on PCIe. `1` would be strictly
/// serial; `>= num_stages` an idealised fully pipelined executor (what
/// TD-Pipe's hierarchy-controller achieves).
const PP_INFLIGHT_LIMIT: usize = 2;

/// Fraction of the *ideal* compute/memory overlap a fused hybrid
/// (chunked-prefill + decode) iteration achieves. 1.0 would hide the
/// chunk's compute perfectly under the decode's memory streaming; 0.0
/// would serialise the two parts (separate attention kernels, mixed
/// batches falling off the paged-decode fast path). Real engines sit in
/// between: the GEMMs genuinely fuse, the attention paths and ragged
/// batching do not.
const HYBRID_OVERLAP: f64 = 0.55;

/// How the model is split over the node's GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Tensor parallelism: every layer pays two all-reduces and the whole
    /// node advances in lockstep, so it is one lane running one job at a
    /// time. There are no pipeline bubbles — the cost is communication.
    Tensor,
    /// Pipeline parallelism: one lane per stage (vLLM's virtual engines),
    /// whose jobs chase each other through the pipeline. Prefill/decode
    /// imbalance between lanes produces the Figure 1 bubbles.
    Pipeline,
}

impl Layout {
    /// Both layouts, in the paper's order.
    pub const ALL: [Layout; 2] = [Layout::Tensor, Layout::Pipeline];

    /// `TP` or `PP`, as in the paper's scheduler names.
    pub const fn abbrev(self) -> &'static str {
        match self {
            Layout::Tensor => "TP",
            Layout::Pipeline => "PP",
        }
    }
}

/// How a lane composes its next job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batching {
    /// Separate batching (vLLM's default): a prefill-only batch whenever
    /// the lane's queue head fits, otherwise one decode step over every
    /// resident. Prefill and decode never mix.
    Separate,
    /// Hybrid batching with chunked prefill (Sarathi-style): every
    /// iteration carries all resident decodes plus prefill chunks up to a
    /// token budget. Chunks re-read their cached prefix, and the fused
    /// iteration only partly overlaps prefill compute with decode memory
    /// streaming (`HYBRID_OVERLAP`).
    Hybrid,
}

impl Batching {
    /// Both policies, in the paper's order.
    pub const ALL: [Batching; 2] = [Batching::Separate, Batching::Hybrid];

    /// `SB` or `HB`, as in the paper's scheduler names.
    pub const fn abbrev(self) -> &'static str {
        match self {
            Batching::Separate => "SB",
            Batching::Hybrid => "HB",
        }
    }
}

#[derive(Debug, Clone)]
enum Cost {
    Tensor(TpCost),
    Pipeline(PpCost),
}

/// A lane's next job, in the cost models' terms.
enum Work<'a> {
    Prefill(&'a [u32]),
    Decode {
        batch: usize,
        ctx: u64,
    },
    Hybrid {
        batch: usize,
        ctx: u64,
        chunks: &'a [(u32, u32)],
        completed: usize,
    },
}

impl Cost {
    /// Price `work` into `job`: per-stage times for a pipeline, one
    /// lock-step stage for a tensor-parallel node.
    fn price(&self, work: Work<'_>, overlap: f64, job: &mut StagedJob) {
        match self {
            Cost::Tensor(c) => {
                let t = match work {
                    Work::Prefill(lens) => c.prefill_time(lens),
                    Work::Decode { batch, ctx } => c.decode_time(batch, ctx),
                    Work::Hybrid {
                        batch,
                        ctx,
                        chunks,
                        completed,
                    } => c.hybrid_time(batch, ctx, chunks, completed, overlap),
                };
                job.exec.clear();
                job.exec.push(t);
                job.xfer.clear();
            }
            Cost::Pipeline(c) => match work {
                Work::Prefill(lens) => c.prefill_job_into(lens, job),
                Work::Decode { batch, ctx } => c.decode_job_into(batch, ctx, job),
                Work::Hybrid {
                    batch,
                    ctx,
                    chunks,
                    completed,
                } => c.hybrid_job_into(batch, ctx, chunks, completed, overlap, job),
            },
        }
    }
}

/// What a lane's in-flight job delivers when the plane reports it done.
#[derive(Default)]
struct Job {
    busy: bool,
    /// Whether it steps the lane's residents by one decode token.
    decodes: bool,
    /// Requests whose prompt it finishes prefilling.
    prefilled: Vec<usize>,
    /// Sequences the control plane processes when it returns.
    seqs: usize,
}

/// A baseline engine: one [`Layout`] × one [`Batching`] policy over the
/// shared lanes, cost models, KV allocator, recompute eviction and
/// execution plane.
#[derive(Debug, Clone)]
pub struct BaselineEngine {
    layout: Layout,
    batching: Batching,
    cfg: EngineConfig,
    cost: Cost,
    plan: MemoryPlan,
}

impl BaselineEngine {
    /// Plan the engine; fails when the model's weights do not fit the
    /// node in `layout`.
    pub fn new(
        layout: Layout,
        batching: Batching,
        model: ModelSpec,
        node: &NodeSpec,
        cfg: EngineConfig,
    ) -> Result<Self, InfeasibleConfig> {
        let (plan, shape) = match layout {
            Layout::Tensor => (
                MemoryPlan::tensor(&model, node, cfg.mem_reserve_bytes),
                "tensor shards",
            ),
            Layout::Pipeline => (
                MemoryPlan::pipeline(&model, node, cfg.mem_reserve_bytes),
                "pipeline stages",
            ),
        };
        let plan = plan.ok_or_else(|| InfeasibleConfig {
            reason: format!(
                "{} does not fit {}x{} {shape}",
                model.name, node.num_gpus, node.gpu.name
            ),
        })?;
        let cost = match layout {
            Layout::Tensor => Cost::Tensor(TpCost::new(model, node)),
            Layout::Pipeline => Cost::Pipeline(PpCost::new(model, node)),
        };
        Ok(BaselineEngine {
            layout,
            batching,
            cfg,
            cost,
            plan,
        })
    }

    /// The paper's name for this baseline (`TP+SB`, …, `PP+HB`).
    pub fn name(&self) -> String {
        format!("{}+{}", self.layout.abbrev(), self.batching.abbrev())
    }

    /// Lanes, which are also the execution plane's stages: one for the
    /// tensor layout, one per GPU for the pipeline layout.
    pub fn num_stages(&self) -> u32 {
        match &self.cost {
            Cost::Tensor(_) => 1,
            Cost::Pipeline(c) => c.num_stages(),
        }
    }

    /// Run over a trace with everything queued at t = 0. The predictor is
    /// unused (the baselines schedule reactively) but accepted for
    /// interface uniformity with TD-Pipe.
    ///
    /// # Panics
    /// As [`Self::run_with_arrivals`].
    pub fn run<P: OutputLenPredictor + ?Sized>(&self, trace: &Trace, predictor: &P) -> RunOutcome {
        self.run_with_arrivals(trace, &[], predictor)
    }

    /// Run with per-request arrival times on the deterministic simulator
    /// (empty slice = everything queued at t = 0). Arrivals must be
    /// non-decreasing and aligned with the trace; latencies come out
    /// arrival-relative.
    ///
    /// # Panics
    /// Panics if `arrivals` is misaligned or unsorted, if some request
    /// cannot fit its lane's KV memory even alone, or if a pending request
    /// never arrives.
    pub fn run_with_arrivals<P: OutputLenPredictor + ?Sized>(
        &self,
        trace: &Trace,
        arrivals: &[f64],
        predictor: &P,
    ) -> RunOutcome {
        let cfg = &self.cfg;
        let plane = SimExecutor::new(self.num_stages(), cfg.transfer_mode, cfg.record_timeline);
        self.try_run_on(trace, arrivals, predictor, Box::new(plane))
            .unwrap_or_else(|e| unreachable!("the simulator cannot fail: {e}"))
    }

    /// Run against any execution plane with [`Self::num_stages`] stages:
    /// the lanes are a policy on the loop every scheduler shares
    /// (`tdpipe_core::driver`), and an execution-plane failure surfaces as
    /// an [`ExecError`].
    ///
    /// # Panics
    /// As [`Self::run_with_arrivals`] (scheduling preconditions only).
    pub fn try_run_on<P: OutputLenPredictor + ?Sized>(
        &self,
        trace: &Trace,
        arrivals: &[f64],
        _predictor: &P,
        plane: Box<dyn PipelineExecutor>,
    ) -> Result<RunOutcome, ExecError> {
        let run = RunState::new(trace, arrivals, |r| r.output_len, false, self.cfg.record_metrics);
        let n = self.num_stages() as usize;
        let policy = LaneRun {
            engine: self,
            lanes: make_lanes(run.pool.len(), n, self.plan.kv_blocks),
            jobs: (0..n).map(|_| Job::default()).collect(),
            lens: Vec::new(),
            chunks: Vec::new(),
            staged: StagedJob::default(),
            ctrl: ControlPlane::new(&self.cfg),
            first: 0,
        };
        drive(policy, run, plane, 0.0)
    }

    /// Hybrid batching's prefill part: chunks of `lane`'s admitted prompts
    /// (admitting queue heads as they arrive and fit) filling the token
    /// budget left after one token per resident decode. Prompts whose
    /// last chunk is scheduled land in `completed`.
    fn fill_chunks(
        &self,
        lane: &mut Lane,
        run: &mut RunState,
        completed: &mut Vec<usize>,
        chunks: &mut Vec<(u32, u32)>,
        now: f64,
    ) {
        let max_seqs = self.cfg.max_num_seqs.unwrap_or(usize::MAX);
        let decode_b = lane.residents.len();
        let mut budget = self.cfg.chunk_token_budget.saturating_sub(decode_b as u32);
        chunks.clear();
        while budget > 0 {
            if lane.prefilling.is_empty()
                && decode_b + completed.len() < max_seqs
                && lane.can_admit(&run.pool, now)
            {
                let (idx, _) = lane.admit_head(run);
                lane.prefilling.push_back((idx, 0));
            }
            let Some(&(idx, done)) = lane.prefilling.front() else {
                break;
            };
            let total = run.pool.prefill_tokens(idx);
            let c = (total - done).min(budget);
            chunks.push((c, done));
            budget -= c;
            if done + c == total {
                lane.prefilling.pop_front();
                completed.push(idx);
            } else {
                lane.prefilling[0].1 = done + c;
            }
        }
    }
}

/// One baseline run as a policy on the shared loop: the lanes, their
/// in-flight jobs and the serialised control plane.
struct LaneRun<'a> {
    engine: &'a BaselineEngine,
    lanes: Vec<Lane>,
    jobs: Vec<Job>,
    /// Launch scratch reused across the run, so steady state allocates
    /// nothing per job.
    lens: Vec<u32>,
    chunks: Vec<(u32, u32)>,
    staged: StagedJob,
    ctrl: ControlPlane,
    /// Where the round-robin scan starts: after the lane that last
    /// completed, or at lane 0 after an idle jump.
    first: usize,
}

impl Policy for LaneRun<'_> {
    fn launch(&mut self, run: &mut RunState, plane: &mut dyn PipelineExecutor, now: f64) -> f64 {
        let n = self.lanes.len();
        for off in 0..n {
            // A lane runs one job at a time, so the single tensor lane
            // never exceeds one whatever the limit.
            if plane.outstanding() >= PP_INFLIGHT_LIMIT {
                break;
            }
            let sid = (self.first + off) % n;
            if !self.jobs[sid].busy {
                self.launch_lane(sid, run, plane, now);
            }
        }
        now
    }

    fn complete(
        &mut self,
        run: &mut RunState,
        plane: &mut dyn PipelineExecutor,
        tag: u64,
        finish: f64,
        _now: f64,
    ) -> f64 {
        let sid = tag as usize;
        let (lane, job) = (&mut self.lanes[sid], &mut self.jobs[sid]);
        let now = self.ctrl.process(finish, job.seqs);
        if job.decodes {
            lane.decode_step(run, finish);
        }
        for &idx in &job.prefilled {
            lane.start_decoding(run, idx, finish);
        }
        job.busy = false;
        if run.metrics.is_enabled() {
            let used: u64 = self.lanes.iter().map(|l| l.alloc.used_blocks()).sum();
            let total: u64 = self.lanes.iter().map(|l| l.alloc.num_blocks()).sum();
            let occ = if total == 0 { 1.0 } else { used as f64 / total as f64 };
            let pending = self.lanes.iter().map(|l| l.pending.len()).sum();
            run.metrics.sample(now, occ, plane.outstanding(), 0, pending);
        }
        self.first = sid + 1;
        now
    }

    fn stall(&mut self, run: &RunState, now: f64) -> Stall {
        self.first = 0;
        let pool = &run.pool;
        let heads = || self.lanes.iter().filter_map(|l| Some((l, *l.pending.front()?)));
        // An idle lane refused an arrived head: it can never fit.
        let oversize = heads().find(|&(_, i)| pool.arrival(i) <= now).map(|(lane, i)| {
            let capacity = lane.alloc.num_blocks() * lane.alloc.block_size() as u64;
            (i, pool.prefill_tokens(i) as u64, capacity)
        });
        Stall {
            oversize,
            next_arrival: heads().map(|(_, i)| pool.arrival(i)).fold(f64::INFINITY, f64::min),
        }
    }

    fn close(self, _run: &mut RunState) -> Close {
        Close {
            scheduler: self.engine.name(),
            phase_switches: 0,
            phases: Vec::new(),
            occupancy: OccupancyTrace::new(),
            alloc: self
                .lanes
                .iter()
                .fold(AllocStats::default(), |a, l| a.merged(l.alloc.stats())),
            kv_blocks: self.engine.plan.kv_blocks,
            evict_mode: EvictMode::Recompute,
        }
    }
}

impl LaneRun<'_> {
    /// Compose idle lane `sid`'s next job under the batching policy and
    /// launch it at `now`; a lane with nothing runnable stays idle.
    fn launch_lane(
        &mut self,
        sid: usize,
        run: &mut RunState,
        plane: &mut dyn PipelineExecutor,
        now: f64,
    ) {
        let eng = self.engine;
        let (lane, job) = (&mut self.lanes[sid], &mut self.jobs[sid]);
        let (lens, chunks) = (&mut self.lens, &mut self.chunks);
        let max_seqs = eng.cfg.max_num_seqs.unwrap_or(usize::MAX);
        let decode_b = lane.residents.len();
        job.prefilled.clear();
        let (work, kind) = match eng.batching {
            Batching::Separate if decode_b < max_seqs && lane.can_admit(&run.pool, now) => {
                lane.pack_prefill_batch_into(
                    run,
                    PREFILL_TOKEN_BUDGET,
                    max_seqs - decode_b,
                    now,
                    &mut job.prefilled,
                    lens,
                );
                let tokens = lens.iter().map(|&l| l as u64).sum();
                run.metrics.on_prefill_batch(job.prefilled.len(), tokens);
                job.decodes = false;
                job.seqs = job.prefilled.len();
                (Work::Prefill(lens), SegmentKind::Prefill)
            }
            Batching::Separate if decode_b > 0 => {
                run.metrics.on_decode_step(decode_b);
                job.decodes = true;
                job.seqs = decode_b;
                let work = Work::Decode {
                    batch: decode_b,
                    ctx: lane.ctx,
                };
                (work, SegmentKind::Decode)
            }
            Batching::Separate => return,
            Batching::Hybrid => {
                eng.fill_chunks(lane, run, &mut job.prefilled, chunks, now);
                if decode_b == 0 && chunks.is_empty() {
                    return;
                }
                if run.metrics.is_enabled() {
                    if decode_b > 0 {
                        run.metrics.on_decode_step(decode_b);
                    }
                    for &(c, _) in chunks.iter() {
                        run.metrics.on_chunk(c as u64);
                    }
                    if !job.prefilled.is_empty() {
                        let tokens = job
                            .prefilled
                            .iter()
                            .map(|&i| run.pool.prefill_tokens(i) as u64)
                            .sum();
                        run.metrics.on_prefill_batch(job.prefilled.len(), tokens);
                    }
                }
                job.decodes = decode_b > 0;
                // The two layouts' control planes charge a hybrid
                // iteration differently, and the Fig. 11 snapshot pins
                // both: the tensor engine counts every chunk it scheduled,
                // the pipeline engine only the prompts those chunks
                // complete.
                job.seqs = decode_b
                    + match eng.layout {
                        Layout::Tensor => chunks.len(),
                        Layout::Pipeline => job.prefilled.len(),
                    };
                let kind = match (decode_b > 0, chunks.is_empty()) {
                    (true, false) => SegmentKind::Hybrid,
                    (true, true) => SegmentKind::Decode,
                    (false, _) => SegmentKind::Prefill,
                };
                let work = Work::Hybrid {
                    batch: decode_b,
                    ctx: lane.ctx,
                    chunks,
                    completed: job.prefilled.len(),
                };
                (work, kind)
            }
        };
        eng.cost.price(work, HYBRID_OVERLAP, &mut self.staged);
        plane.launch(now, &self.staged.exec, &self.staged.xfer, kind, sid as u64);
        job.busy = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_predictor::OraclePredictor;
    use tdpipe_workload::ShareGptLikeConfig;

    #[test]
    fn pp_executor_overlaps_shallowly() {
        // vLLM 0.5.x could not keep a 4-deep pipeline fed (see
        // `PP_INFLIGHT_LIMIT`).
        const { assert!(PP_INFLIGHT_LIMIT < 4) };
    }

    fn engine(
        layout: Layout,
        batching: Batching,
        node: &NodeSpec,
        cfg: EngineConfig,
    ) -> BaselineEngine {
        BaselineEngine::new(layout, batching, ModelSpec::llama2_13b(), node, cfg).unwrap()
    }

    fn tput(layout: Layout, batching: Batching, node: &NodeSpec, trace: &Trace) -> f64 {
        engine(layout, batching, node, EngineConfig::default())
            .run(trace, &OraclePredictor)
            .report
            .throughput_total()
    }

    #[test]
    fn every_cell_completes_under_its_paper_name() {
        let t = ShareGptLikeConfig::small(64, 9).generate();
        let mut names = Vec::new();
        for layout in Layout::ALL {
            for batching in Batching::ALL {
                let e = engine(layout, batching, &NodeSpec::l20(4), EngineConfig::default());
                let out = e.run(&t, &OraclePredictor);
                assert_eq!(out.report.num_requests, 64);
                assert_eq!(out.report.scheduler, e.name());
                assert!(out.report.throughput_total() > 0.0);
                names.push(e.name());
            }
        }
        assert_eq!(names, ["TP+SB", "TP+HB", "PP+SB", "PP+HB"]);
    }

    #[test]
    fn infeasible_layouts_are_rejected_by_name() {
        let node = NodeSpec::a100(1);
        for (layout, shape) in [(Layout::Tensor, "tensor"), (Layout::Pipeline, "pipeline")] {
            let err = BaselineEngine::new(
                layout,
                Batching::Separate,
                ModelSpec::llama2_70b(),
                &node,
                EngineConfig::default(),
            )
            .unwrap_err();
            assert!(err.reason.contains(shape), "{}", err.reason);
        }
    }

    #[test]
    fn deterministic() {
        let t = ShareGptLikeConfig::small(100, 5).generate();
        let e = engine(
            Layout::Tensor,
            Batching::Separate,
            &NodeSpec::l20(2),
            EngineConfig::default(),
        );
        assert_eq!(
            e.run(&t, &OraclePredictor).report,
            e.run(&t, &OraclePredictor).report
        );
    }

    #[test]
    fn seq_cap_binds_batch_size() {
        // With a small max_num_seqs the run takes longer than unbounded.
        let t = ShareGptLikeConfig::small(300, 7).generate();
        let node = NodeSpec::a100(4);
        let capped = EngineConfig {
            max_num_seqs: Some(32),
            ..EngineConfig::default()
        };
        let run = |cfg| {
            engine(Layout::Tensor, Batching::Separate, &node, cfg)
                .run(&t, &OraclePredictor)
                .report
                .makespan
        };
        assert!(run(capped) > run(EngineConfig::default()));
    }

    #[test]
    fn chunking_tracks_prefill_progress() {
        // Tighter chunk budgets mean more iterations per prompt and more
        // prefix re-reads, so makespan must not improve.
        let t = ShareGptLikeConfig::small(40, 11).generate();
        let node = NodeSpec::l20(2);
        let run = |chunk_token_budget| {
            let cfg = EngineConfig {
                chunk_token_budget,
                ..EngineConfig::default()
            };
            engine(Layout::Tensor, Batching::Hybrid, &node, cfg)
                .run(&t, &OraclePredictor)
                .report
                .makespan
        };
        assert!(run(256) > run(8192) * 0.8);
    }

    #[test]
    fn pp_sb_suffers_visible_bubbles_at_four_stages() {
        let t = ShareGptLikeConfig::small(400, 21).generate();
        let cfg = EngineConfig {
            record_timeline: true,
            ..EngineConfig::default()
        };
        let out = engine(Layout::Pipeline, Batching::Separate, &NodeSpec::l20(4), cfg)
            .run(&t, &OraclePredictor);
        // The Figure 2 phenomenon: mixed prefill/decode pipelining with
        // statically-bound lanes leaves real idle time.
        assert!(
            out.report.mean_utilization < 0.9,
            "util {}",
            out.report.mean_utilization
        );
    }

    #[test]
    fn single_stage_pp_sb_matches_tp_sb_shape() {
        // With one GPU both layouts degenerate to the same continuous
        // batching loop; throughputs should be almost identical.
        let t = ShareGptLikeConfig::small(80, 13).generate();
        let node = NodeSpec::l20(1);
        let ratio = tput(Layout::Pipeline, Batching::Separate, &node, &t)
            / tput(Layout::Tensor, Batching::Separate, &node, &t);
        assert!((0.95..1.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn pp_hb_beats_pp_sb_at_scale() {
        // §4.2: "the combination of hybrid batching and chunked-prefill...
        // can indeed optimize the pipeline parallelism".
        let t = ShareGptLikeConfig::small(600, 33).generate();
        let node = NodeSpec::l20(4);
        let hb = tput(Layout::Pipeline, Batching::Hybrid, &node, &t);
        let sb = tput(Layout::Pipeline, Batching::Separate, &node, &t);
        assert!(hb > 0.9 * sb, "hb={hb:.0} sb={sb:.0}");
    }
}
