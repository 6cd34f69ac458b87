//! Baseline schedulers the paper compares TD-Pipe against (§4.1), as one
//! engine over a 2×2 policy grid:
//!
//! | layout \ batching | separate (SB)  | hybrid (HB)    |
//! |-------------------|----------------|----------------|
//! | tensor (TP)       | [`TpSbEngine`] | [`TpHbEngine`] |
//! | pipeline (PP)     | [`PpSbEngine`] | [`PpHbEngine`] |
//!
//! * **TP+SB** is vLLM's default: every layer pays two all-reduces, prefill
//!   batches and decode steps never mix, and the whole node advances in
//!   lockstep — no pipeline bubbles, the cost is communication.
//! * **TP+HB** runs Sarathi-style chunked prefill: every iteration carries
//!   all resident decodes plus prefill chunks up to a token budget.
//! * **PP+SB** runs `num_stages` scheduler lanes (vLLM's virtual engines)
//!   that alternate prefill and decode jobs chasing each other through the
//!   pipeline; prefill/decode imbalance between lanes produces the
//!   Figure 1 bubbles.
//! * **PP+HB** has the lanes issue token-budgeted hybrid iterations, which
//!   balances stages better but pays chunked prefill's repeated KV reads.
//!
//! Each engine is a [`BaselineEngine`] built from its cell's [`Layout`]
//! and [`Batching`]; the lanes are shared with each other, and the run
//! loop, cost models, KV allocator, recompute eviction, execution plane
//! and result type ([`RunOutcome`]) with TD-Pipe too — the only
//! differences are the scheduling decisions, exactly like the paper's
//! single-codebase (vLLM) comparison. The KV-offloading engine
//! (`tdpipe-offload`) runs one [`common::Lane`] on the same loop.
//!
//! As the lowest crate that knows both TD-Pipe and the baselines, this one
//! also holds the one [`Scheduler`] table: each of the five schedulers'
//! paper name, command-line spelling, and the configuration it runs with
//! ([`Scheduler::run`]). The figure harness and the CLI both
//! dispatch through it.

#![forbid(unsafe_code)]

pub mod common;
pub mod engine;
pub mod scheduler;

pub use engine::{BaselineEngine, Batching, Layout};
pub use scheduler::{tdpipe_config, RunError, Scheduler};

use tdpipe_core::config::EngineConfig;
use tdpipe_core::engine::{InfeasibleConfig, RunOutcome};
use tdpipe_hw::NodeSpec;
use tdpipe_model::ModelSpec;

/// The result type under its older, per-scheduler path.
pub mod tp_sb {
    /// A baseline run's result: the [`RunOutcome`](crate::RunOutcome)
    /// TD-Pipe returns too.
    pub type BaselineOutcome = crate::RunOutcome;
}

macro_rules! baseline_engine {
    ($(#[$doc:meta])* $name:ident = $layout:ident + $batching:ident) => {
        $(#[$doc])*
        ///
        /// A thin name for one cell of the policy grid: it derefs to the
        /// [`BaselineEngine`] that runs it.
        #[derive(Debug, Clone)]
        pub struct $name(BaselineEngine);

        impl $name {
            /// Plan the engine; fails when the model's weights do not fit
            /// the node in this layout.
            pub fn new(
                model: ModelSpec,
                node: &NodeSpec,
                cfg: EngineConfig,
            ) -> Result<Self, InfeasibleConfig> {
                BaselineEngine::new(Layout::$layout, Batching::$batching, model, node, cfg)
                    .map($name)
            }
        }

        impl std::ops::Deref for $name {
            type Target = BaselineEngine;

            fn deref(&self) -> &BaselineEngine {
                &self.0
            }
        }
    };
}

baseline_engine!(
    /// **TP+SB**: tensor parallelism + separate batching.
    TpSbEngine = Tensor + Separate
);
baseline_engine!(
    /// **TP+HB**: tensor parallelism + chunked-prefill hybrid batching.
    TpHbEngine = Tensor + Hybrid
);
baseline_engine!(
    /// **PP+SB**: pipeline parallelism + separate batching.
    PpSbEngine = Pipeline + Separate
);
baseline_engine!(
    /// **PP+HB**: pipeline parallelism + chunked-prefill hybrid batching.
    PpHbEngine = Pipeline + Hybrid
);
