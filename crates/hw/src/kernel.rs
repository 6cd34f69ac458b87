//! Roofline execution-time model for transformer kernels.

use crate::gpu::GpuSpec;
use serde::{Deserialize, Serialize};
use tdpipe_model::LayerWork;

/// Turns a [`LayerWork`] (FLOPs + bytes) into wall-clock seconds on one GPU.
///
/// `t = max( flops / (peak · η_c), bytes / (bw · η_m) ) + t_launch`
///
/// where the compute efficiency
/// `η_c(tokens) = η_max · tokens / (tokens + tokens_half) · degree^(−γ)`
/// ramps up with the GEMM "M" dimension (number of tokens in the batch) and
/// degrades mildly when tensor parallelism slices matrices thinner. The
/// memory efficiency `η_m` is a constant fraction of peak HBM bandwidth.
///
/// This reproduces the two behaviours every scheduling decision in the paper
/// rests on:
/// * prefill saturates compute at tiny batch sizes while decode needs
///   hundreds of requests (§2.1), and
/// * per-request decode throughput (`Achieved/Peak`, the *spatial
///   intensity* of §3.5) decays as the batch drains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelModel {
    /// Device executing the kernels.
    pub gpu: GpuSpec,
    /// Best-case fraction of peak tensor throughput large GEMMs achieve.
    pub eta_compute_max: f64,
    /// Token count at which `η_c` reaches half of `eta_compute_max`.
    pub tokens_half: f64,
    /// Fraction of peak HBM bandwidth streaming kernels achieve.
    pub eta_memory: f64,
    /// Fixed overhead per layer invocation (kernel launches, scheduling).
    pub launch_overhead: f64,
    /// Tensor-parallel GEMM efficiency exponent: at degree `d` compute
    /// efficiency is multiplied by `d^(−γ)` (thinner matrices, worse tiling).
    pub tp_gamma: f64,
}

impl KernelModel {
    /// Calibrated model for a device.
    ///
    /// Efficiency fractions differ per device: the A100's 312 TFLOPS peak
    /// and 1.94 TB/s HBM are harder to approach in practice than the L20's
    /// more modest peaks (large-model GEMMs on A100 typically realise
    /// ~45–55% of peak; HBM2e streaming ~70–75%), and the paper's absolute
    /// run times (shortest 602 s on the A100 node vs 929 s on L20, §4.4.1)
    /// pin the scale.
    pub fn calibrated(gpu: GpuSpec) -> Self {
        let (eta_compute_max, eta_memory) = if gpu.name == "A100" {
            (0.45, 0.70)
        } else {
            (0.60, 0.85)
        };
        KernelModel {
            gpu,
            eta_compute_max,
            tokens_half: 48.0,
            eta_memory,
            launch_overhead: 15e-6,
            tp_gamma: 0.12,
        }
    }

    /// Compute efficiency for a kernel processing `tokens` tokens at tensor
    /// parallel degree `degree`.
    #[inline]
    pub fn eta_compute(&self, tokens: u64, degree: u32) -> f64 {
        let t = tokens as f64;
        let ramp = t / (t + self.tokens_half);
        // pow(1, y) is exactly 1: skip the call on the pipeline-parallel path.
        let shard = if degree == 1 {
            1.0
        } else {
            (degree as f64).powf(-self.tp_gamma)
        };
        self.eta_compute_max * ramp * shard
    }

    /// Wall time of one layer invocation executed on a single GPU
    /// (pipeline-parallel or single-device execution).
    #[inline]
    pub fn layer_time(&self, work: &LayerWork) -> f64 {
        self.layer_time_tp(work, 1)
    }

    /// Wall time of one layer invocation whose work is sharded across
    /// `degree` tensor-parallel GPUs (communication **not** included — the
    /// caller adds [`crate::Interconnect::allreduce_time`] per the 2
    /// all-reduces each layer needs).
    pub fn layer_time_tp(&self, work: &LayerWork, degree: u32) -> f64 {
        if work.tokens == 0 {
            return 0.0;
        }
        let d = degree as f64;
        let flops = work.flops / d;
        let bytes = work.total_bytes() / d;
        let t_compute = flops / (self.gpu.fp16_flops * self.eta_compute(work.tokens, degree));
        let t_memory = bytes / (self.gpu.mem_bw * self.eta_memory);
        t_compute.max(t_memory) + self.launch_overhead
    }

    /// Wall time of `layer_count` identical layer invocations plus optional
    /// boundary kernels (embedding lookup, LM head).
    pub fn stage_time(&self, per_layer: &LayerWork, layer_count: u32, extras: &[LayerWork]) -> f64 {
        let mut t = self.layer_time(per_layer) * layer_count as f64;
        for e in extras {
            t += self.layer_time(e);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdpipe_model::ModelSpec;

    fn l20() -> KernelModel {
        KernelModel::calibrated(GpuSpec::l20())
    }

    #[test]
    fn prefill_is_compute_bound_decode_is_memory_bound() {
        let k = l20();
        let m = ModelSpec::llama2_13b();
        let p = m.prefill_layer_work(&[2048]);
        let d = m.decode_layer_work(8, 8 * 300);

        // Prefill: compute term dominates.
        let t_mem_p = p.total_bytes() / (k.gpu.mem_bw * k.eta_memory);
        assert!(k.layer_time(&p) > 2.0 * t_mem_p);

        // Decode with a small batch: the memory term is binding — layer
        // time equals the memory time plus launch overhead.
        let t_mem_d = d.total_bytes() / (k.gpu.mem_bw * k.eta_memory);
        let t_cmp_d = d.flops / (k.gpu.fp16_flops * k.eta_compute(d.tokens, 1));
        assert!(t_mem_d > t_cmp_d, "decode should be memory-bound");
        assert!((k.layer_time(&d) - (t_mem_d + k.launch_overhead)).abs() < 1e-12);
    }

    #[test]
    fn decode_step_time_nearly_flat_in_batch() {
        // The §2.1 asymmetry: doubling the decode batch should cost much
        // less than double the time (weights stream once).
        let k = l20();
        let m = ModelSpec::llama2_13b();
        let t64 = k.layer_time(&m.decode_layer_work(64, 64 * 300));
        let t128 = k.layer_time(&m.decode_layer_work(128, 128 * 300));
        assert!(t128 < 1.5 * t64, "t64={t64:.6} t128={t128:.6}");
    }

    #[test]
    fn per_request_decode_rate_improves_with_batch() {
        let k = l20();
        let m = ModelSpec::llama2_13b();
        let rate = |b: usize| {
            let t = k.layer_time(&m.decode_layer_work(b, b as u64 * 300)) * m.layers as f64;
            b as f64 / t
        };
        assert!(rate(256) > 3.0 * rate(16));
    }

    #[test]
    fn tp_shards_speed_up_prefill_sublinearly() {
        let k = l20();
        let m = ModelSpec::llama_30b();
        let w = m.prefill_layer_work(&[4096]);
        let t1 = k.layer_time_tp(&w, 1);
        let t4 = k.layer_time_tp(&w, 4);
        let speedup = t1 / t4;
        assert!(speedup > 2.5 && speedup < 4.0, "speedup={speedup}");
    }

    #[test]
    fn a100_beats_l20_on_both_phases() {
        let kl = l20();
        let ka = KernelModel::calibrated(GpuSpec::a100());
        let m = ModelSpec::qwen2_5_32b();
        let p = m.prefill_layer_work(&[1024]);
        let d = m.decode_layer_work(128, 128 * 400);
        assert!(ka.layer_time(&p) < kl.layer_time(&p));
        assert!(ka.layer_time(&d) < kl.layer_time(&d));
    }

    #[test]
    fn zero_work_is_free() {
        let k = l20();
        assert_eq!(k.layer_time(&LayerWork::default()), 0.0);
    }

    #[test]
    fn launch_overhead_floors_tiny_kernels() {
        let k = l20();
        let m = ModelSpec::tiny_test();
        let w = m.decode_layer_work(1, 1);
        assert!(k.layer_time(&w) >= k.launch_overhead);
    }

    #[test]
    fn stage_time_scales_with_layers_and_extras() {
        let k = l20();
        let m = ModelSpec::llama2_13b();
        let w = m.decode_layer_work(32, 32 * 100);
        let head = m.lm_head_work(32);
        let t_plain = k.stage_time(&w, 10, &[]);
        let t_extra = k.stage_time(&w, 10, &[head]);
        assert!((t_plain - 10.0 * k.layer_time(&w)).abs() < 1e-12);
        assert!(t_extra > t_plain);
    }
}
