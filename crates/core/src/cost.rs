//! Analytical execution-cost models per parallel layout.
//!
//! These adapt the per-layer roofline of `tdpipe-hw` to whole scheduler
//! jobs: a prefill batch, a decode step, or a hybrid (chunked prefill +
//! decode) iteration, under either pipeline or tensor parallelism. All
//! engines — TD-Pipe and the four baselines — price their work here, so
//! comparisons differ *only* in scheduling policy.

#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
#![deny(clippy::allow_attributes_without_reason, unfulfilled_lint_expectations)]

use tdpipe_hw::{Interconnect, KernelModel, NodeSpec};
use tdpipe_model::{LayerWork, ModelSpec, PipelinePartition, TensorShard};

/// A job priced for the pipeline simulator: per-stage execution seconds
/// plus per-boundary transfer seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StagedJob {
    /// Execution time on each stage.
    pub exec: Vec<f64>,
    /// Transfer time across each stage boundary (`len = stages − 1`).
    pub xfer: Vec<f64>,
}

impl StagedJob {
    /// End-to-end latency of the job on an empty pipeline.
    pub fn latency(&self) -> f64 {
        self.exec.iter().sum::<f64>() + self.xfer.iter().sum::<f64>()
    }

    /// The bottleneck stage time — the job's contribution to steady-state
    /// pipeline phase length.
    pub fn bottleneck(&self) -> f64 {
        self.exec.iter().cloned().fold(0.0, f64::max)
    }
}

/// Pipeline-parallel job pricing.
#[derive(Debug, Clone)]
pub struct PpCost {
    model: ModelSpec,
    partition: PipelinePartition,
    kernel: KernelModel,
    interconnect: Interconnect,
}

impl PpCost {
    /// Price jobs for `model` split evenly layer-wise over all GPUs of
    /// `node` ([`PipelinePartition::balanced`]).
    pub fn new(model: ModelSpec, node: &NodeSpec) -> Self {
        let partition = PipelinePartition::balanced(&model, node.num_gpus);
        PpCost {
            kernel: node.kernel(),
            interconnect: node.interconnect.clone(),
            model,
            partition,
        }
    }

    /// Number of pipeline stages.
    #[inline]
    pub fn num_stages(&self) -> u32 {
        self.partition.num_stages()
    }

    /// The layer partition in use.
    #[inline]
    pub fn partition(&self) -> &PipelinePartition {
        &self.partition
    }

    /// The model being priced.
    #[inline]
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// Price `per_layer` on every stage, plus the embedding on the stage
    /// holding it and the LM head on the stage holding it. Each kernel is
    /// priced once and its time reused on every stage, summed in
    /// [`KernelModel::stage_time`]'s order (layers, then embedding, then
    /// LM head), so every stage time is bit-identical to that method's.
    fn staged_into(
        &self,
        per_layer: &LayerWork,
        logits_tokens: u64,
        embed_tokens: u64,
        out: &mut StagedJob,
    ) {
        let t_layer = self.kernel.layer_time(per_layer);
        let extra = |tokens: u64, work: fn(&ModelSpec, u64) -> LayerWork| {
            (tokens > 0).then(|| self.kernel.layer_time(&work(&self.model, tokens)))
        };
        let t_embed = extra(embed_tokens, ModelSpec::embedding_work);
        let t_head = extra(logits_tokens, ModelSpec::lm_head_work);
        let n = self.num_stages() as usize;
        out.exec.clear();
        out.exec.reserve(n);
        for a in self.partition.stages() {
            let mut t = t_layer * a.layer_count as f64;
            if let Some(e) = t_embed.filter(|_| a.has_embedding) {
                t += e;
            }
            if let Some(h) = t_head.filter(|_| a.has_lm_head) {
                t += h;
            }
            out.exec.push(t);
        }
        let act_bytes = per_layer.tokens * self.model.activation_bytes_per_token();
        out.xfer.clear();
        out.xfer
            .resize(n.saturating_sub(1), self.interconnect.p2p_time(act_bytes));
    }

    /// A prefill batch over the given sequence lengths. Each sequence
    /// produces one logit row (its first generated token).
    pub fn prefill_job(&self, seq_lens: &[u32]) -> StagedJob {
        let mut out = StagedJob::default();
        self.prefill_job_into(seq_lens, &mut out);
        out
    }

    /// [`Self::prefill_job`] into a caller-owned scratch job (hot loops
    /// reuse one `StagedJob` instead of allocating per launch).
    pub fn prefill_job_into(&self, seq_lens: &[u32], out: &mut StagedJob) {
        let work = self.model.prefill_layer_work(seq_lens);
        let tokens = work.tokens;
        self.staged_into(&work, seq_lens.len() as u64, tokens, out);
    }

    /// [`Self::prefill_job_into`] from pre-accumulated batch statistics
    /// (token total, attention FLOPs, sequence count) instead of the raw
    /// sequence lengths. Bit-identical to the slice form whenever the parts
    /// were accumulated in the same order — see
    /// [`tdpipe_model::ModelSpec::prefill_layer_work_from_parts`]. This is
    /// what lets the decode→prefill estimator price cached batch prefixes
    /// in O(stages) per query instead of re-walking every sequence.
    pub fn prefill_job_from_parts(
        &self,
        tokens: u64,
        attn_flops: f64,
        num_seqs: u64,
        out: &mut StagedJob,
    ) {
        let work = self.model.prefill_layer_work_from_parts(tokens, attn_flops);
        self.staged_into(&work, num_seqs, tokens, out);
    }

    /// One decode step for a batch of `batch` requests with `total_ctx`
    /// total context tokens.
    pub fn decode_job(&self, batch: usize, total_ctx: u64) -> StagedJob {
        let mut out = StagedJob::default();
        self.decode_job_into(batch, total_ctx, &mut out);
        out
    }

    /// [`Self::decode_job`] into a caller-owned scratch job.
    pub fn decode_job_into(&self, batch: usize, total_ctx: u64, out: &mut StagedJob) {
        let work = self.model.decode_layer_work(batch, total_ctx);
        self.staged_into(&work, batch as u64, batch as u64, out);
    }

    /// One hybrid iteration: a decode sub-batch plus prefill chunks
    /// (`(chunk_len, cached_prefix)` pairs).
    ///
    /// The GEMMs of both parts share one weight stream (that fusion is
    /// real), but the attention kernels and ragged-batch handling overlap
    /// only partially: `overlap` interpolates between fully-serialised
    /// (`0.0`) and ideal roofline fusion (`1.0`). Written into a
    /// caller-owned scratch job.
    pub fn hybrid_job_into(
        &self,
        batch: usize,
        total_ctx: u64,
        chunks: &[(u32, u32)],
        completed_chunks: usize,
        overlap: f64,
        out: &mut StagedJob,
    ) {
        let (t_layer, tokens) = hybrid_layer_time(
            &self.model,
            &self.kernel,
            batch,
            total_ctx,
            chunks,
            overlap,
            1,
        );
        let logits = batch as u64 + completed_chunks as u64;
        let n = self.num_stages() as usize;
        out.exec.clear();
        out.exec.reserve(n);
        for a in self.partition.stages() {
            let mut t = t_layer * a.layer_count as f64;
            if a.has_embedding && tokens > 0 {
                t += self.kernel.layer_time(&self.model.embedding_work(tokens));
            }
            if a.has_lm_head && logits > 0 {
                t += self.kernel.layer_time(&self.model.lm_head_work(logits));
            }
            out.exec.push(t);
        }
        let act_bytes = tokens * self.model.activation_bytes_per_token();
        out.xfer.clear();
        out.xfer.resize(n.saturating_sub(1), self.interconnect.p2p_time(act_bytes));
    }
}

/// Per-layer time and token count of a hybrid (decode + chunks) iteration
/// at tensor-parallel degree `degree`.
///
/// Weights stream once (charged to the decode part, or to the chunks when
/// there is no decode part); the chunk part's remaining time overlaps the
/// decode part by the `overlap` fraction of the ideal.
fn hybrid_layer_time(
    model: &ModelSpec,
    kernel: &KernelModel,
    batch: usize,
    total_ctx: u64,
    chunks: &[(u32, u32)],
    overlap: f64,
    degree: u32,
) -> (f64, u64) {
    let overlap = overlap.clamp(0.0, 1.0);
    let d_work = if batch > 0 {
        self_decode(model, batch, total_ctx)
    } else {
        LayerWork::default()
    };
    let mut c_work = LayerWork::default();
    for &(chunk, prefix) in chunks {
        c_work = c_work.merge(&model.chunk_layer_work(chunk, prefix));
    }
    if batch > 0 {
        // Weights already streamed by the decode part.
        c_work.weight_bytes = 0.0;
    }
    let t_d = if batch > 0 {
        kernel.layer_time_tp(&d_work, degree)
    } else {
        0.0
    };
    let t_c = if c_work.tokens > 0 {
        kernel.layer_time_tp(&c_work, degree)
    } else {
        0.0
    };
    let fused = t_d.max(t_c);
    let serial = t_d + t_c;
    let t = overlap * fused + (1.0 - overlap) * serial;
    (t, d_work.tokens + c_work.tokens)
}

#[inline]
fn self_decode(model: &ModelSpec, batch: usize, total_ctx: u64) -> LayerWork {
    model.decode_layer_work(batch, total_ctx)
}

/// Tensor-parallel job pricing: the node acts as one lock-step resource;
/// every layer pays two all-reduces over the batch's activations.
#[derive(Debug, Clone)]
pub struct TpCost {
    model: ModelSpec,
    shard: TensorShard,
    kernel: KernelModel,
    interconnect: Interconnect,
}

impl TpCost {
    /// Price jobs for `model` sharded over all GPUs of `node`.
    pub fn new(model: ModelSpec, node: &NodeSpec) -> Self {
        TpCost {
            shard: TensorShard::new(node.num_gpus),
            kernel: node.kernel(),
            interconnect: node.interconnect.clone(),
            model,
        }
    }

    /// Tensor-parallel degree.
    #[inline]
    pub fn degree(&self) -> u32 {
        self.shard.degree
    }

    /// The model being priced.
    #[inline]
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// `(compute_seconds, comm_seconds)` for a batch described by its
    /// per-layer work; exposed separately so Figure 6's breakdown can be
    /// reported directly.
    pub fn split_time(&self, per_layer: &LayerWork, logits_tokens: u64) -> (f64, f64) {
        let layers = self.model.layers;
        let mut compute =
            self.kernel.layer_time_tp(per_layer, self.shard.degree) * layers as f64;
        if per_layer.tokens > 0 {
            compute += self
                .kernel
                .layer_time_tp(&self.model.embedding_work(per_layer.tokens), self.shard.degree);
        }
        if logits_tokens > 0 {
            compute += self
                .kernel
                .layer_time_tp(&self.model.lm_head_work(logits_tokens), self.shard.degree);
        }
        let msg = self.shard.allreduce_bytes(&self.model, per_layer.tokens);
        // Compute-bound batches (prefill) run their all-reduces while GEMMs
        // contend for the GPUs; memory-bound decode steps see the quiet-
        // phase bandwidth of Table 1.
        let compute_bound =
            per_layer.arithmetic_intensity() > self.kernel.gpu.balance_flops_per_byte();
        let per_op = if compute_bound {
            self.interconnect.allreduce_time_contended(msg, self.shard.degree)
        } else {
            self.interconnect.allreduce_time(msg, self.shard.degree)
        };
        let comm = per_op * self.shard.allreduce_ops(layers) as f64;
        (compute, comm)
    }

    /// Total time for a prefill batch.
    pub fn prefill_time(&self, seq_lens: &[u32]) -> f64 {
        let work = self.model.prefill_layer_work(seq_lens);
        let (c, m) = self.split_time(&work, seq_lens.len() as u64);
        c + m
    }

    /// Compute/comm breakdown for a prefill batch (Fig. 6).
    pub fn prefill_breakdown(&self, seq_lens: &[u32]) -> (f64, f64) {
        let work = self.model.prefill_layer_work(seq_lens);
        self.split_time(&work, seq_lens.len() as u64)
    }

    /// Total time for one decode step.
    pub fn decode_time(&self, batch: usize, total_ctx: u64) -> f64 {
        let work = self.model.decode_layer_work(batch, total_ctx);
        let (c, m) = self.split_time(&work, batch as u64);
        c + m
    }

    /// Total time for one hybrid (chunked prefill + decode) iteration;
    /// see [`PpCost::hybrid_job_into`] for the `overlap` semantics.
    pub fn hybrid_time(
        &self,
        batch: usize,
        total_ctx: u64,
        chunks: &[(u32, u32)],
        completed_chunks: usize,
        overlap: f64,
    ) -> f64 {
        let (t_layer, tokens) = hybrid_layer_time(
            &self.model,
            &self.kernel,
            batch,
            total_ctx,
            chunks,
            overlap,
            self.shard.degree,
        );
        let layers = self.model.layers;
        let mut compute = t_layer * layers as f64;
        if tokens > 0 {
            compute += self
                .kernel
                .layer_time_tp(&self.model.embedding_work(tokens), self.shard.degree);
        }
        let logits = batch as u64 + completed_chunks as u64;
        if logits > 0 {
            compute += self
                .kernel
                .layer_time_tp(&self.model.lm_head_work(logits), self.shard.degree);
        }
        let msg = self.shard.allreduce_bytes(&self.model, tokens);
        let comm = self.interconnect.allreduce_time(msg, self.shard.degree)
            * self.shard.allreduce_ops(layers) as f64;
        compute + comm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node4() -> NodeSpec {
        NodeSpec::l20(4)
    }

    #[test]
    fn pp_stage_times_are_balanced_for_even_layer_splits() {
        let c = PpCost::new(ModelSpec::llama2_13b(), &node4()); // 40/4 = 10 each
        let job = c.decode_job(128, 128 * 300);
        assert_eq!(job.exec.len(), 4);
        assert_eq!(job.xfer.len(), 3);
        // Interior stages identical; boundary stages pay embed / LM head.
        assert!((job.exec[1] - job.exec[2]).abs() < 1e-12);
        assert!(job.exec[3] >= job.exec[1]); // LM head ≥ plain
        let spread = job.bottleneck() / job.exec.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 1.35, "stages too imbalanced: {spread}");
    }

    /// Pricing each kernel once per job gives every stage exactly the time
    /// [`KernelModel::stage_time`] computes for it, on decode and prefill
    /// shapes, one to eight stages. Three and six stages split the 40
    /// layers unevenly (14/13/13 and 7,7,7,7,6,6).
    #[test]
    fn staged_jobs_match_the_per_stage_formula_bit_for_bit() {
        let model = ModelSpec::llama2_13b();
        for gpus in [1, 2, 3, 4, 6, 8] {
            let node = NodeSpec::l20(gpus);
            let c = PpCost::new(model.clone(), &node);
            let reference = |work: &LayerWork, logits: u64, embed: u64| -> Vec<u64> {
                c.partition()
                    .stages()
                    .iter()
                    .map(|a| {
                        let mut extras = Vec::new();
                        if a.has_embedding && embed > 0 {
                            extras.push(model.embedding_work(embed));
                        }
                        if a.has_lm_head && logits > 0 {
                            extras.push(model.lm_head_work(logits));
                        }
                        c.kernel.stage_time(work, a.layer_count, &extras).to_bits()
                    })
                    .collect()
            };
            let bits = |job: &StagedJob| -> Vec<u64> {
                job.exec.iter().map(|t| t.to_bits()).collect()
            };
            for batch in [0, 1, 7, 64, 512, 4096] {
                for ctx_per in [0, 1, 300, 4000] {
                    let ctx = batch as u64 * ctx_per;
                    let work = model.decode_layer_work(batch, ctx);
                    let want = reference(&work, batch as u64, batch as u64);
                    assert_eq!(
                        bits(&c.decode_job(batch, ctx)),
                        want,
                        "decode {batch}x{ctx_per}"
                    );
                }
            }
            for lens in [
                &[][..],
                &[1],
                &[17, 3],
                &[512; 8],
                &[4096],
                &[1; 64],
                &[2048, 1, 900],
            ] {
                let work = model.prefill_layer_work(lens);
                let want = reference(&work, lens.len() as u64, work.tokens);
                assert_eq!(bits(&c.prefill_job(lens)), want, "prefill {lens:?}");
            }
        }
    }

    #[test]
    fn pp_transfers_are_tiny_relative_to_compute() {
        let c = PpCost::new(ModelSpec::llama2_13b(), &node4());
        let job = c.prefill_job(&[512, 512, 512, 512]);
        assert!(job.xfer[0] < 0.05 * job.exec[0], "xfer {} exec {}", job.xfer[0], job.exec[0]);
    }

    #[test]
    fn tp_decode_is_latency_punished_on_pcie() {
        // TP decode all-reduces a small message 2×layers times per step —
        // on PCIe that's a large fraction of the step (§2.2.3).
        let c = TpCost::new(ModelSpec::llama2_13b(), &node4());
        let work = c.model().decode_layer_work(64, 64 * 300);
        let (comp, comm) = c.split_time(&work, 64);
        assert!(comm > 0.3 * comp, "comm {comm} comp {comp}");
    }

    #[test]
    fn tp_prefill_comm_fraction_matches_fig6_ballpark() {
        // Fig. 6: at 4 L20 GPUs communication is ~47% of prefill time.
        let c = TpCost::new(ModelSpec::llama_30b(), &node4());
        let (comp, comm) = c.prefill_breakdown(&[1024, 1024, 1024, 1024]);
        let frac = comm / (comp + comm);
        assert!((0.30..0.65).contains(&frac), "comm fraction {frac}");
    }

    #[test]
    fn single_gpu_tp_and_pp_agree() {
        let node1 = NodeSpec::l20(1);
        let model = ModelSpec::llama2_13b();
        let pp = PpCost::new(model.clone(), &node1);
        let tp = TpCost::new(model, &node1);
        let pj = pp.decode_job(32, 32 * 200);
        assert_eq!(pj.exec.len(), 1);
        let rel = (pj.latency() - tp.decode_time(32, 32 * 200)).abs() / pj.latency();
        assert!(rel < 1e-9, "single-GPU layouts should coincide, rel={rel}");
    }

    #[test]
    fn hybrid_job_prices_decode_plus_chunks() {
        let c = PpCost::new(ModelSpec::llama2_13b(), &node4());
        let hybrid = |batch, ctx, overlap| {
            let mut job = StagedJob::default();
            c.hybrid_job_into(batch, ctx, &[(256, 0)], 0, overlap, &mut job);
            job
        };
        let d = c.decode_job(64, 64 * 200);
        let h = hybrid(64, 64 * 200, 0.4);
        let p = hybrid(0, 0, 0.4);
        assert!(h.latency() > d.latency());
        assert!(h.latency() > p.latency());
        // Partial fusion: cheaper than running the two jobs back to back...
        assert!(h.latency() < d.latency() + p.latency());
        // ...but a fully-overlapped hybrid is cheaper still, and a fully
        // serialised one costs more.
        let h_ideal = hybrid(64, 64 * 200, 1.0);
        let h_serial = hybrid(64, 64 * 200, 0.0);
        assert!(h_ideal.latency() < h.latency());
        assert!(h_serial.latency() > h.latency());
    }

    #[test]
    fn four_gpu_pp_decode_step_beats_single_gpu() {
        let model = ModelSpec::llama2_13b();
        let c1 = PpCost::new(model.clone(), &NodeSpec::l20(1));
        let c4 = PpCost::new(model, &node4());
        let t1 = c1.decode_job(128, 128 * 300).latency();
        let t4 = c4.decode_job(128, 128 * 300).bottleneck();
        // Steady-state per-step cost under PP is the bottleneck stage.
        assert!(t4 < t1 / 2.5, "t1={t1} t4={t4}");
    }
}
