//! # tdpipe-analyzer
//!
//! The repo's machine-checked correctness gate, in two layers:
//!
//! 1. **Invariant lint pass** ([`lexer`], [`model`], [`rules`], [`run`])
//!    — a hand-rolled Rust lexer feeding a per-file token model
//!    (comments and string contents invisible by construction,
//!    `#[cfg(test)]` / `mod tests` scopes tracked, per-line
//!    `// analyzer: allow(<rule>) — <justification>` escapes honoured)
//!    plus a rule engine with per-crate rule sets configured in
//!    `analyzer.toml`:
//!
//!    * *determinism rules* for every crate that feeds serialized
//!      reports, and for this crate itself — no `Instant::now` /
//!      `SystemTime`, no `HashMap`/`HashSet` (iteration order leaks into
//!      output), no f64 sorts bypassing `total_cmp`;
//!    * *observer purity* — branches gated on `EngineConfig::record_*`
//!      may only assign to the `[observers]` allow-list.
//!
//!    Panic-safety (no non-test `unwrap`/`expect`/`panic!`/`todo!`/
//!    `unimplemented!` on the supervised execution plane) and float-to-int
//!    casts in accounting code are clippy lints, not rules here: each
//!    covered crate denies them in its `Cargo.toml` (in `crates/core`,
//!    per file), with `#[expect(clippy::<lint>, reason = "..")]` as the
//!    escape, and `scripts/ci.sh` runs clippy before this pass. Mixing
//!    KV blocks with tokens is a type error: block counts are
//!    `tdpipe_kvcache::Blocks`.
//!
//!    A committed ratchet baseline ([`findings`]) makes CI fail on any
//!    *new* finding while tolerating (and reporting) the baseline.
//!
//! 2. **Bounded protocol model checker** ([`protocol`]) — the
//!    cluster↔worker supervision protocol (launch → exec → transfer-ack →
//!    completion → `WorkerExit` → shutdown, including every fault
//!    `FaultPlan` can inject) as an explicit state machine, explored
//!    exhaustively over ≤3 stages × ≤3 in-flight jobs: no deadlock,
//!    exactly one `WorkerExit` per rank, no completion after
//!    `ShutdownTimedOut`. Mutation scenarios prove it non-vacuous. It runs
//!    as an ordinary `cargo test` and in CI's analyze step
//!    (`--check-protocols`).
//!
//!    Its breadth-first explorer ([`explore`]) is public: the session-KV
//!    retention code (`tdpipe_kvcache::SessionKv`) is model-checked by
//!    the same explorer in that crate's tests, on the real type and a real
//!    allocator rather than a restatement. It keys its seen-set by `Ord`,
//!    so this crate holds no hash collection.

#![forbid(unsafe_code)]

pub mod config;
pub mod explore;
pub mod findings;
pub mod lexer;
pub mod model;
pub mod protocol;
pub mod rules;
pub mod run;

pub use config::Config;
pub use findings::{Baseline, Finding, RatchetDiff};
pub use run::{analyze_root, Analysis};
