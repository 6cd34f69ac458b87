//! Synthetic ShareGPT-like workloads for the TD-Pipe reproduction.
//!
//! The paper evaluates on ShareGPT V3: ~53k conversations expanded to
//! 86,612 (input, output) pairs, inputs filtered to < 1024 tokens, then
//! 5,000 randomly sampled requests per run (§4.1). The proprietary dataset
//! is not shipped here, so this crate generates a **seeded synthetic trace**
//! with the same statistical skeleton:
//!
//! * log-normal input lengths truncated to `[4, 1023]`,
//! * heavy-tailed output lengths drawn from a per-*category* distribution —
//!   each request belongs to a latent scenario category (chitchat, coding,
//!   summarisation, …) that shifts its expected output length,
//! * a feature vector per request that is a *noisy* indicator of the
//!   category, standing in for the BERT `[CLS]` embedding the paper's
//!   output-length predictor consumes (§3.3). The noise level is the knob
//!   that calibrates predictor accuracy to the paper's ≈0.52–0.58.
//!
//! Everything is deterministic given a seed, which the simulator and the
//! benchmark harness rely on for reproducibility.

#![forbid(unsafe_code)]

pub mod arrival;
pub mod generator;
pub mod request;
pub mod session;
pub mod stats;
pub mod trace;

pub use arrival::ArrivalProcess;
pub use session::{SessionConfig, SessionTrace, SessionTurn};
pub use generator::{ShareGptLikeConfig, CATEGORY_COUNT, FEATURE_DIM};
pub use request::{Request, RequestId};
pub use stats::TraceStats;
pub use trace::{Trace, TraceSplits};
