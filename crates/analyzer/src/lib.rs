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
//!      reports — no `Instant::now` / `SystemTime`, no
//!      `HashMap`/`HashSet` (iteration order leaks into output), no f64
//!      sorts bypassing `total_cmp`;
//!    * the **accounting-dimension check** (`unit-mismatch`) — flags
//!      `+`/`-`/comparison between values whose inferred units differ
//!      (tokens vs blocks vs seconds vs bytes vs count — suffix
//!      conventions plus the `[units]` table);
//!    * *semantic rules* — hash-order iteration via collection-type
//!      tracking (the iterator calls clippy's `iter_over_hash_type`,
//!      which sees only `for` loops, misses), and observer purity:
//!      branches gated on `EngineConfig::record_*` may only assign to
//!      the `[observers]` allow-list.
//!
//!    Panic-safety (no non-test `unwrap`/`expect`/`panic!`/`todo!`/
//!    `unimplemented!` on the supervised execution plane) and float-to-int
//!    casts in accounting code are clippy lints, not rules here: each
//!    covered crate denies them in its `Cargo.toml` (in `crates/core`,
//!    per file), with `#[expect(clippy::<lint>, reason = "..")]` as the
//!    escape, and `scripts/ci.sh` runs clippy before this pass.
//!
//!    A committed ratchet baseline ([`findings`]) makes CI fail on any
//!    *new* finding while tolerating (and reporting) the baseline.
//!
//! 2. **Bounded protocol model checkers** ([`protocol`],
//!    [`session_protocol`]) — explicit state machines explored
//!    exhaustively by one shared BFS explorer:
//!
//!    * the cluster↔worker supervision protocol (launch → exec →
//!      transfer-ack → completion → `WorkerExit` → shutdown, including
//!      every fault `FaultPlan` can inject), ≤3 stages × ≤3 in-flight
//!      jobs: no deadlock, exactly one `WorkerExit` per rank, no
//!      completion after `ShutdownTimedOut`;
//!    * the session-KV retention protocol (`SessionRetainer`:
//!      retain / claim / pop_oldest_except / reclaim under memory
//!      pressure), ≤3 sessions × ≤2 turns: no block leak, no claim
//!      after drop, retained budget never exceeded, miss ⇒ full
//!      prefill. Mutation scenarios prove both checkers non-vacuous.
//!
//!    The checkers run as ordinary `cargo test`s and in CI's analyze
//!    step (`--check-protocols`), so the proofs re-run in tier-1.

#![forbid(unsafe_code)]

pub mod config;
mod explore;
pub mod findings;
pub mod lexer;
pub mod model;
pub mod protocol;
pub mod rules;
pub mod run;
pub mod session_protocol;

pub use config::Config;
pub use findings::{Baseline, Finding, RatchetDiff};
pub use run::{analyze_root, Analysis};
