//! Engine configuration shared by TD-Pipe and the baselines, plus the
//! TD-Pipe-specific policy knobs the ablation studies sweep. Values the
//! paper's setup fixes and nothing sweeps are constants, not fields.

use serde::{Deserialize, Serialize};
use tdpipe_sim::TransferMode;

/// Paged-attention block size in tokens: vLLM's default, which the
/// paper's §4.1 vLLM setup runs TD-Pipe and every baseline with.
pub const BLOCK_SIZE: u32 = tdpipe_model::DEFAULT_BLOCK_SIZE;

/// Maximum tokens packed into one separate-batching prefill batch. A
/// calibration constant shared by every separate-batching scheduler, so
/// prefill batch shapes stay comparable across them.
pub const PREFILL_TOKEN_BUDGET: u32 = 4096;

/// Fixed control-plane cost per scheduling iteration in seconds (batch
/// assembly, launch RPCs). TD-Pipe's hierarchy-controller overlaps all
/// other control work with execution (§3.2), so this launch cost is all
/// it pays per batch.
pub const ENGINE_OVERHEAD: f64 = 1.0e-3;

/// Per-sequence control-plane cost per iteration in seconds
/// (sampling-result processing, detokenisation, scheduler bookkeeping —
/// the Python-side work a vLLM-0.5.x engine does between steps). Only the
/// baselines pay it, serialised with [`ENGINE_OVERHEAD`] on one CPU
/// thread on the critical path (`crate::control::ControlPlane`).
pub const CONTROL_PER_SEQ: f64 = 30.0e-6;

/// Per-GPU bytes reserved for activations and workspace, subtracted
/// from every layout's KV budget (like vLLM's `gpu_memory_utilization`
/// headroom).
pub const MEM_RESERVE_BYTES: u64 = 2 * (1 << 30);

/// Fraction of KV blocks kept free as admission watermark during prefill
/// (vLLM's 1% guard against immediate thrashing).
pub const WATERMARK: f64 = 0.01;

/// Effective host-link bandwidth for KV swapping, bytes/s (only used by
/// [`PreemptionMode::Swap`]): roughly what the nodes' PCIe Gen4 ×16 links
/// sustain for host copies.
pub const HOST_LINK_BW: f64 = 20.0e9;

/// Spacing of Algorithm 1's `futurePoints` in decode steps (the paper's
/// example grid, §3.3).
pub const FUTURE_POINT_STRIDE: u32 = 32;

/// Last `futurePoint` Algorithm 1 checks (the paper's example uses
/// 32…1024).
pub const FUTURE_POINT_MAX: u32 = 1024;

/// Algorithm 1's `futurePoints` grid: 32, 64, …, 1024.
pub fn future_points() -> Vec<u32> {
    (1..=FUTURE_POINT_MAX / FUTURE_POINT_STRIDE)
        .map(|i| i * FUTURE_POINT_STRIDE)
        .collect()
}

/// Scheduler-agnostic engine parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Inter-stage transfer semantics. Conventional pipeline executors
    /// (vLLM's NCCL send/recv) use [`TransferMode::Rendezvous`] — the
    /// default here; TD-Pipe's hierarchy-controller decouples scheduling
    /// from execution and overrides this to [`TransferMode::Async`]
    /// (see [`TdPipeConfig::default`]).
    pub transfer_mode: TransferMode,
    /// Whether the pipeline simulator records per-segment timelines
    /// (needed for utilization-in-window and Gantt exports; costs memory).
    pub record_timeline: bool,
    /// Whether the scheduling flight recorder keeps a structured decision
    /// journal (`tdpipe-trace`). Off by default: a disabled recorder is a
    /// single-branch no-op, so default runs stay bit-identical. Enable
    /// together with [`EngineConfig::record_timeline`] to get device
    /// tracks in the Chrome-trace export.
    pub record_trace: bool,
    /// Whether the engine maintains the deterministic metrics plane
    /// (`tdpipe-metrics`): typed counters/gauges/histograms plus the
    /// virtual-time series sampler, and TD-Pipe's per-batch KV occupancy
    /// samples (Fig. 12, `RunOutcome::occupancy`; its peak is kept either
    /// way). Off by default: a disabled registry is a single-branch no-op
    /// per update, so default runs stay bit-identical. A `true` run is a
    /// pure observer — the schedule and report are unchanged (pinned in
    /// `tests/metrics_export.rs` and `tests/trace_export.rs`).
    pub record_metrics: bool,
    /// Session-affine KV reuse across closed-loop turns (see
    /// `TdPipeEngine::try_run` on sessions): when `true`, a finished
    /// turn's KV is retained for its session's next turn under the
    /// [`EngineConfig::session_retain_frac`] budget, and a resumed turn
    /// whose retained prefix survived prefills only its fresh suffix. When
    /// `false`, every turn pays a full prefill. Has no effect on
    /// non-session runs — their artifacts stay bit-identical either way.
    pub session_reuse: bool,
    /// Fraction of the KV pool that retained (idle-session) blocks may
    /// occupy. Retained blocks are reclaimed oldest-first when the budget
    /// or live admissions need the memory.
    pub session_retain_frac: f64,
    /// Overflow strategy during decode.
    pub preemption: PreemptionMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            transfer_mode: TransferMode::Rendezvous,
            record_timeline: false,
            record_trace: false,
            record_metrics: false,
            session_reuse: true,
            session_retain_frac: 0.5,
            preemption: PreemptionMode::Recompute,
        }
    }
}

/// What to do with a resident request when the KV pool overflows
/// mid-decode (§3.3 names both options: "frequent re-computation or
/// offloading").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PreemptionMode {
    /// Free the KV and re-prefill prompt+generated later (the paper's
    /// §4.1 choice; wastes compute, no PCIe traffic).
    Recompute,
    /// Swap the KV to host memory and stream it back on re-admission
    /// (saves compute, pays the host link both ways).
    Swap,
}

/// Prefill→decode switch policy (paper §3.3 / Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum P2dPolicy {
    /// Algorithm 1: AI-based greedy prefill with future-KV simulation.
    Greedy,
    /// Ablation: switch once the KV occupancy ratio reaches a fixed
    /// threshold in `(0, 1]` (the "KV cache occupancy ratio"
    /// hyper-parameter of §4.4.1).
    FixedOccupancy(f64),
}

/// Decode→prefill switch policy (paper §3.5 / Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum D2pPolicy {
    /// Spatial-temporal intensity comparison.
    Intensity,
    /// Ablation: switch once a fixed fraction of the decode phase's
    /// starting requests have finished (the "request finish ratio"
    /// hyper-parameter of §4.4.3).
    FixedFinishRatio(f64),
}

/// TD-Pipe scheduler configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TdPipeConfig {
    /// Shared engine parameters.
    pub engine: EngineConfig,
    /// Prefill→decode switching policy.
    pub p2d: P2dPolicy,
    /// Decode→prefill switching policy.
    pub d2p: D2pPolicy,
    /// Inter-batch work stealing on/off (paper §3.4 / Fig. 15).
    pub work_stealing: bool,
}

impl Default for TdPipeConfig {
    fn default() -> Self {
        TdPipeConfig {
            engine: EngineConfig {
                // The hierarchy-controller's decoupled control plane makes
                // stage-to-stage transfers non-blocking (§3.2).
                transfer_mode: TransferMode::Async,
                ..EngineConfig::default()
            },
            p2d: P2dPolicy::Greedy,
            d2p: D2pPolicy::Intensity,
            work_stealing: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_future_points_match_paper_example() {
        let fp = future_points();
        assert_eq!(fp.first(), Some(&32));
        assert_eq!(fp.last(), Some(&1024));
        assert_eq!(fp.len(), 32);
        assert!(fp.windows(2).all(|w| w[1] - w[0] == 32));
    }

    #[test]
    fn configs_round_trip_through_json() {
        let c = TdPipeConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let d: TdPipeConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, d);
        // Policy enums serialise too.
        let p = P2dPolicy::FixedOccupancy(0.8);
        let q: P2dPolicy = serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn tdpipe_defaults_encode_the_architecture() {
        let c = TdPipeConfig::default();
        // Hierarchy-controller: async transfers.
        assert_eq!(c.engine.transfer_mode, tdpipe_sim::TransferMode::Async);
        // Baseline defaults are the conventional-engine ones.
        let e = EngineConfig::default();
        assert_eq!(e.transfer_mode, tdpipe_sim::TransferMode::Rendezvous);
    }

    #[test]
    fn defaults_are_sane() {
        const { assert!(BLOCK_SIZE > 0) };
        const { assert!(WATERMARK < 0.5) };
        const { assert!(ENGINE_OVERHEAD < 0.1) };
    }
}
