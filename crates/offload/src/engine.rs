//! The offloading engine: single-GPU continuous batching with host-resident
//! KV, and the node-level contended run.

use crate::contention::{HostLink, NodeOffloadRun};
use crate::cost::OffloadCost;
use tdpipe_baselines::common::{make_lanes, stall, Lane};
use tdpipe_baselines::engine::MAX_NUM_SEQS;
use tdpipe_core::config::{
    EngineConfig, BLOCK_SIZE, ENGINE_OVERHEAD, MEM_RESERVE_BYTES, PREFILL_TOKEN_BUDGET,
};
use tdpipe_core::driver::{drive, Close, Policy, RunState, Stall, WindowSpans};
use tdpipe_core::engine::InfeasibleConfig;
use tdpipe_core::exec::{PipelineExecutor, SimExecutor};
use tdpipe_hw::NodeSpec;
use tdpipe_kvcache::{Blocks, OccupancyTrace};
use tdpipe_model::{kv_budget_bytes, ModelSpec};
use tdpipe_sim::{RunReport, SegmentKind, TransferMode};
use tdpipe_trace::EvictMode;
use tdpipe_workload::{Trace, Workload};

/// A FlexGen-style single-GPU engine: weights in HBM, KV in host memory.
///
/// Scheduling is plain continuous batching with prefill priority; the
/// batch-size limit comes from host *capacity* (huge) and [`MAX_NUM_SEQS`],
/// not GPU memory — the selling point of offloading — but every decode
/// step pays the host link (its downfall, §2.2.2).
#[derive(Debug, Clone)]
pub struct OffloadEngine {
    cfg: EngineConfig,
    cost: OffloadCost,
    host_kv_bytes: u64,
}

impl OffloadEngine {
    /// Plan an engine on one GPU of `node`, with `host_mem_bytes` of CPU
    /// memory dedicated to the KV pool. Fails if the *weights* don't fit
    /// the GPU (offloading here spills KV, not weights).
    pub fn new(
        model: ModelSpec,
        node: &NodeSpec,
        host_mem_bytes: u64,
        cfg: EngineConfig,
    ) -> Result<Self, InfeasibleConfig> {
        if kv_budget_bytes(node.gpu.mem_bytes, model.weight_bytes(), MEM_RESERVE_BYTES) == 0 {
            return Err(InfeasibleConfig {
                reason: format!(
                    "{} weights do not fit one {} (KV offloading spills cache, not weights)",
                    model.name, node.gpu.name
                ),
            });
        }
        Ok(OffloadEngine {
            cost: OffloadCost::new(model, node.kernel()),
            cfg,
            host_kv_bytes: host_mem_bytes,
        })
    }

    /// KV token capacity of the host pool.
    pub fn token_capacity(&self) -> u64 {
        self.host_kv_bytes / self.cost.model().kv_bytes_per_token()
    }

    /// Run one replica at a fixed effective host bandwidth: one lane over
    /// the host KV pool, a policy on the loop every scheduler shares
    /// (`tdpipe_core::driver`).
    ///
    /// # Panics
    /// Panics if some request cannot fit the host KV pool even alone.
    pub fn run_at_bandwidth(&self, trace: &Trace, host_bw: f64) -> RunReport {
        let run = RunState::new(&Workload::offline(trace), |r| r.output_len, false, false);
        let kv_blocks = Blocks::new(
            self.host_kv_bytes / (self.cost.model().kv_bytes_per_token() * BLOCK_SIZE as u64),
        );
        let policy = OffloadRun {
            engine: self,
            host_bw,
            lane: make_lanes(run.pool.len(), 1, kv_blocks).remove(0),
            batch: Vec::new(),
            lens: Vec::new(),
        };
        let plane = SimExecutor::new(1, TransferMode::Async, self.cfg.record_timeline);
        drive(policy, run, Box::new(plane), 0.0)
            .unwrap_or_else(|e| unreachable!("the simulator cannot fail: {e}"))
            .report
    }

    /// Run `replicas` independent copies of this engine on one node,
    /// splitting the trace evenly and sharing the host link: each replica
    /// sees `link.effective_bw(replicas)`.
    pub fn run_node(&self, trace: &Trace, replicas: u32, link: &HostLink) -> NodeOffloadRun {
        assert!(replicas >= 1, "need at least one replica");
        let bw = link.effective_bw(replicas);
        let mut makespan = 0.0f64;
        let mut tokens = 0u64;
        for r in 0..replicas as usize {
            let part: Vec<_> = trace
                .requests()
                .iter()
                .enumerate()
                .filter(|(i, _)| i % replicas as usize == r)
                .map(|(_, req)| req.clone())
                .collect();
            if part.is_empty() {
                continue;
            }
            let part = Trace::new(part);
            let report = self.run_at_bandwidth(&part, bw);
            makespan = makespan.max(report.makespan);
            tokens += report.input_tokens + report.output_tokens;
        }
        NodeOffloadRun {
            replicas,
            makespan,
            throughput_total: tokens as f64 / makespan,
            effective_bw: bw,
        }
    }
}

/// Job tags: what the one in-flight job delivers when it completes.
const PREFILL: u64 = 0;
const DECODE: u64 = 1;

/// One replica's run as a policy on the shared loop: a single lane over the
/// host KV pool, one job in flight at a time, priced by [`OffloadCost`] at
/// `host_bw`. The control plane overlaps execution, so a completion
/// charges only the launch cost ([`ENGINE_OVERHEAD`]).
struct OffloadRun<'a> {
    engine: &'a OffloadEngine,
    host_bw: f64,
    lane: Lane,
    /// The in-flight prefill batch: pool indices and prompt lengths.
    batch: Vec<usize>,
    lens: Vec<u32>,
}

impl Policy for OffloadRun<'_> {
    fn launch(&mut self, run: &mut RunState, plane: &mut dyn PipelineExecutor, now: f64) -> f64 {
        if plane.outstanding() > 0 {
            return now;
        }
        let (eng, lane) = (self.engine, &mut self.lane);
        let residents = lane.residents.len();
        let (t, kind, tag) = if residents < MAX_NUM_SEQS && lane.can_admit(&run.pool, now) {
            let max_new = MAX_NUM_SEQS - residents;
            let (batch, lens) = (&mut self.batch, &mut self.lens);
            lane.pack_prefill_batch_into(run, PREFILL_TOKEN_BUDGET, max_new, now, batch, lens);
            let t = eng.cost.prefill_time(lens, self.host_bw);
            (t, SegmentKind::Prefill, PREFILL)
        } else if residents > 0 {
            let t = eng.cost.decode_time(residents, lane.ctx, self.host_bw);
            (t, SegmentKind::Decode, DECODE)
        } else {
            return now;
        };
        plane.launch(now, &[t], &[], kind, tag);
        now
    }

    fn complete(
        &mut self,
        run: &mut RunState,
        _plane: &mut dyn PipelineExecutor,
        tag: u64,
        finish: f64,
        _now: f64,
    ) -> f64 {
        let lane = &mut self.lane;
        if tag == DECODE {
            lane.decode_step(run, finish);
        } else {
            for &idx in &self.batch {
                lane.start_decoding(run, idx, finish);
            }
        }
        finish + ENGINE_OVERHEAD
    }

    fn stall(&mut self, run: &RunState, now: f64) -> Stall {
        stall(std::slice::from_ref(&self.lane), &run.pool, now)
    }

    fn close(self, _run: &mut RunState) -> Close {
        Close {
            scheduler: "Offload".into(),
            occupancy: OccupancyTrace::new(),
            alloc: self.lane.alloc.stats(),
            kv_blocks: self.lane.alloc.num_blocks(),
            evict_mode: EvictMode::Recompute,
            windows: WindowSpans {
                kv: self.lane.alloc.window_high_water(),
                ..WindowSpans::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_workload::ShareGptLikeConfig;

    const GIB: u64 = 1 << 30;

    fn engine() -> OffloadEngine {
        OffloadEngine::new(
            ModelSpec::llama2_13b(),
            &NodeSpec::l20(4),
            256 * GIB,
            EngineConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn completes_and_conserves() {
        let t = ShareGptLikeConfig::small(80, 4).generate();
        let r = engine().run_at_bandwidth(&t, 20.0e9);
        assert_eq!(r.num_requests, 80);
        assert_eq!(r.output_tokens, t.total_output_tokens());
    }

    #[test]
    #[should_panic(expected = "exceeds KV capacity")]
    fn request_larger_than_the_host_pool_is_a_clean_panic() {
        // Room for 64 tokens of KV: every ShareGPT-like prompt overflows it.
        let kv_tok = ModelSpec::llama2_13b().kv_bytes_per_token();
        let tiny = OffloadEngine::new(
            ModelSpec::llama2_13b(),
            &NodeSpec::l20(1),
            64 * kv_tok,
            EngineConfig::default(),
        )
        .unwrap();
        let t = ShareGptLikeConfig::small(4, 1).generate();
        tiny.run_at_bandwidth(&t, 20.0e9);
    }

    #[test]
    fn host_pool_overflow_recomputes_the_newest_residents() {
        // A pool that admits many prompts but cannot hold their growth:
        // decode steps overflow it and evict for recomputation, like the
        // baselines, and the run still completes every request.
        let kv_tok = ModelSpec::llama2_13b().kv_bytes_per_token();
        let small = OffloadEngine::new(
            ModelSpec::llama2_13b(),
            &NodeSpec::l20(1),
            6_000 * kv_tok,
            EngineConfig::default(),
        )
        .unwrap();
        let t = ShareGptLikeConfig::small(80, 4).generate();
        let r = small.run_at_bandwidth(&t, 20.0e9);
        assert_eq!(r.output_tokens, t.total_output_tokens());
        assert!(r.recomputed_tokens > 0, "the pool must overflow");
    }

    #[test]
    fn host_pool_is_much_larger_than_gpu() {
        // 256 GB of host KV vs ~20 GB on-GPU: >10x the tokens.
        assert!(engine().token_capacity() > 300_000);
    }

    #[test]
    fn weights_must_fit_the_gpu() {
        let err = OffloadEngine::new(
            ModelSpec::llama2_70b(),
            &NodeSpec::l20(1),
            256 * GIB,
            EngineConfig::default(),
        )
        .unwrap_err();
        assert!(err.reason.contains("weights"));
    }

    #[test]
    fn contention_collapses_scaling() {
        // The §2.2.2 claim: 4 replicas on a commodity root complex deliver
        // far less than 4x one replica.
        let t = ShareGptLikeConfig::small(240, 8).generate();
        let e = engine();
        let link = HostLink::commodity_gen4();
        let one = e.run_node(&t, 1, &link);
        let four = e.run_node(&t, 4, &link);
        let scaling = four.throughput_total / one.throughput_total;
        assert!(
            scaling < 2.5,
            "offload scaling should collapse, got {scaling:.2}x"
        );
        // With an uncontended link the same layout scales fine.
        let four_ideal = e.run_node(&t, 4, &HostLink::uncontended());
        let ideal_scaling = four_ideal.throughput_total / one.throughput_total;
        assert!(ideal_scaling > scaling + 0.5, "ideal {ideal_scaling:.2}x");
    }
}
