#!/usr/bin/env bash
# The one-command gate: everything a change must pass before merging.
#
#   1. lints: clippy over the workspace in the dev profile, every warning
#      an error (`cargo clippy --offline --workspace -- -D warnings`). The
#      crates' `[lints.clippy]` tables and core's file-level
#      `#![deny(..)]` make panic-safety (`unwrap_used`, `expect_used`,
#      `panic`, `todo`, `unimplemented`), float→int and narrowing casts
#      (`cast_possible_truncation`, `cast_sign_loss`) and `for` loops
#      over hash collections (`iter_over_hash_type`) errors; an escape is an
#      `#[expect(.., reason = "..")]`, and a stale one fails. The dev
#      profile keeps `#[cfg(debug_assertions)]` oracle code in view; test
#      code is not checked (no `--all-targets`). Mixing KV blocks with
#      tokens is not linted: block counts are `tdpipe_kvcache::Blocks`,
#      so the build itself rejects it. Then the invariant lint pass
#      (crates/analyzer vs the committed baseline — the analyzer scans
#      its own sources via the `tooling` rule set, which bans hash
#      collections there outright) plus the
#      bounded cluster↔worker supervision model checker
#      (`--check-protocols`, proven non-vacuous by seeded mutations); the
#      session-KV retention code is model-checked in step 3's tests
#      (`tdpipe-kvcache`'s `session::tests::protocol`)
#   2. release build of the whole workspace
#  2b. layering: the fleet crate and the `tdpipe` library must not depend
#      on the figure harness (`tdpipe-bench`) through normal dependencies
#      (`cargo tree --offline -e normal`); shared plumbing such as the
#      parallel map lives in `tdpipe-core`
#   3. full test suite (unit + integration + doctests, all crates — the
#      doctests include `Blocks`'s `compile_fail` pair, which pins that
#      tokens and blocks do not mix; it includes the
#      bounded protocol model checkers: the supervision model's, and the
#      BFS over the real `SessionKv` and `BlockAllocator`, which runs
#      again in step 3b's debug `tdpipe-kvcache` line)
#  3b. debug-profile oracles: the engine's `debug_assert` cross-checks
#      (incremental planner vs a from-scratch rebuild, cached vs naive
#      prefill estimate, the exact §3.5 decision at every certified or
#      saturated shortcut, in observed and unobserved runs alike, every
#      priced estimate batch vs the run's latency cap, cohort reset, the
#      split pending queue's layout and each session release's
#      binary-searched positions vs a linear walk) compile out
#      of release builds, so the core crate's tests and the root golden,
#      determinism and runtime-equivalence tests run again in the debug
#      profile, where a missed estimate-cache invalidation or a drifted
#      planner fails loudly — on the simulator and on the threaded plane
#      alike; the workload crate's tests run there too, so both in-place
#      generators' range arithmetic runs with overflow checks on, and so
#      do the trace and spans crates' tests, so the journal's stage-event
#      derivation and the bubble fold over it run with debug asserts and
#      overflow checks; and so do the KV-cache, baseline and offload
#      crates' tests, so the id windows' offset arithmetic (and every
#      scheduler's windowed run state) runs with overflow checks on
#   4. bit-identical smoke diff against the committed Fig. 11 snapshot
#  4b. figure artifacts: every figure binary reruns at its default
#      request count into a temp dir (`scripts/figures.sh --check`,
#      ~3 s), and every tracked file under `results/` except `smoke/`
#      must match byte for byte, `full_run.log` included; regenerate
#      deliberately with `scripts/figures.sh`
#   5. flight-recorder smoke: a traced CLI run whose Chrome-trace export
#      must pass the schema validator
#   6. metrics-regression gate: a metered 200-request run diffed against
#      the committed metrics.baseline.json (nonzero exit = a gated
#      headline metric drifted beyond its per-metric tolerance; refresh
#      the baseline deliberately when a change is intentional:
#        target/release/tdpipe-cli run --scheduler td --requests 200 \
#          --metrics-out metrics.baseline.json)
#   7. online-sessions smoke: a short Poisson open-loop run and a
#      closed-loop session run (session-KV reuse on) through the CLI;
#      both Chrome-trace exports must pass the schema validator, and two
#      identical metered session runs must metrics-diff clean against
#      each other (the online path is deterministic and the diff tool
#      understands the session counters).
#   8. fleet smoke: a 2-replica heterogeneous (l20+a100) routed run
#      through the CLI with per-replica Chrome-trace exports (both must
#      pass the schema validator), and two identical metered fleet runs
#      that must metrics-diff clean against each other (the fleet router,
#      parallel replica execution, and replica-labelled metrics merge are
#      all deterministic).
#   9. perf-trajectory smoke: a quick (200-request, 1-rep, no scale
#      cells) perf_trajectory run into a temp file, schema-validated with
#      `perf_trajectory --check`, plus the same check against the
#      committed BENCH_hotpath.json. Catches harness bitrot,
#      hand-edited/truncated trajectory files and any non-scale cell
#      missing from either file; it does NOT gate on times
#      (CI machines are too noisy — regenerate BENCH_hotpath.json
#      deliberately with `cargo run --release --bin perf_trajectory`).
#  10. span/bubble attribution smoke: a traced run exporting its raw
#      journal (`--journal-out`), then `span-report` and `bubble-report`
#      over it (plus a 2-replica fleet journal set merged under replica
#      labels); every emitted report must pass its own `--check` schema
#      validator, which re-verifies the exact accounting identities
#      (span components refold to TTFT/latency, attributed bubble
#      seconds refold bit-exactly to total StageIdle per device) and
#      exits 1 on any malformed or tampered report.
#  11. benchmark package tests: `src/bin/benchmark` is its own package
#      (empty `[workspace]`), so the workspace steps above never build
#      it, yet it compiles against the engines' public API.
#  12. vendored stand-in tests: `vendor/*` are not workspace members, so
#      `--workspace` never runs their unit tests (serde_json's in-place
#      number printing and linear-time string parsing among them).
#  13. non-test line count per crate (`scripts/loc.sh`): advisory only,
#      never gates — it lets every change report net lines the same way.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n\033[1m== %s ==\033[0m\n' "$1"; }

step "lints (clippy, then the invariant lint pass + supervision model checker)"
cargo clippy --offline --workspace -- -D warnings
scripts/analyze.sh

step "build (release)"
# --workspace: a root-only build does not (re)link the bench-crate
# binaries, and step 7 runs one.
cargo build --release --workspace

step "layering (the library does not link the figure harness)"
for pkg in tdpipe-fleet tdpipe; do
  if cargo tree --offline -e normal -p "$pkg" | grep -q 'tdpipe-bench'; then
    echo "error: $pkg depends on tdpipe-bench (the figure harness)" >&2
    exit 1
  fi
done

step "tests (workspace)"
cargo test --release --workspace -q

step "tests (debug profile: engine oracles on)"
cargo test -q -p tdpipe-core
cargo test -q -p tdpipe-workload
cargo test -q -p tdpipe-trace -p tdpipe-spans
cargo test -q -p tdpipe-kvcache -p tdpipe-baselines -p tdpipe-offload
cargo test -q --test baseline_golden --test determinism --test runtime_equivalence

step "smoke (bit-identical fig11 snapshot)"
scripts/smoke.sh

step "figure artifacts (results/ is what the binaries write)"
scripts/figures.sh --check

step "trace export smoke (schema-valid Chrome trace)"
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
target/release/tdpipe-cli run --scheduler td --requests 200 \
  --trace-out "$trace_tmp/run.trace.json"
target/release/tdpipe-cli validate-trace --file "$trace_tmp/run.trace.json"

step "metrics-regression gate (vs committed baseline)"
target/release/tdpipe-cli run --scheduler td --requests 200 \
  --metrics-out "$trace_tmp/run.metrics.json"
target/release/tdpipe-cli metrics-diff \
  --baseline metrics.baseline.json --current "$trace_tmp/run.metrics.json"

step "online-sessions smoke (poisson arrivals + session-KV reuse)"
target/release/tdpipe-cli run --scheduler td --requests 120 \
  --arrival poisson --rate 24 \
  --trace-out "$trace_tmp/online.trace.json"
target/release/tdpipe-cli validate-trace --file "$trace_tmp/online.trace.json"
target/release/tdpipe-cli run --scheduler td --sessions 48 \
  --arrival poisson --rate 8 --reuse on \
  --trace-out "$trace_tmp/sessions.trace.json"
target/release/tdpipe-cli validate-trace --file "$trace_tmp/sessions.trace.json"
target/release/tdpipe-cli run --scheduler td --sessions 48 \
  --arrival poisson --rate 8 --reuse on \
  --metrics-out "$trace_tmp/sessions.a.metrics.json"
target/release/tdpipe-cli run --scheduler td --sessions 48 \
  --arrival poisson --rate 8 --reuse on \
  --metrics-out "$trace_tmp/sessions.b.metrics.json"
target/release/tdpipe-cli metrics-diff \
  --baseline "$trace_tmp/sessions.a.metrics.json" \
  --current "$trace_tmp/sessions.b.metrics.json"

step "fleet smoke (heterogeneous routed run, traced + deterministic metrics)"
target/release/tdpipe-cli run --requests 120 \
  --arrival poisson --rate 16 \
  --pool l20:1,a100:1 --router kv \
  --trace-out "$trace_tmp/fleet.trace.json"
target/release/tdpipe-cli validate-trace \
  --file "$trace_tmp/fleet.trace.json.r0,$trace_tmp/fleet.trace.json.r1"
target/release/tdpipe-cli run --requests 120 \
  --arrival poisson --rate 16 \
  --pool l20:1,a100:1 --router kv \
  --metrics-out "$trace_tmp/fleet.a.metrics.json"
target/release/tdpipe-cli run --requests 120 \
  --arrival poisson --rate 16 \
  --pool l20:1,a100:1 --router kv \
  --metrics-out "$trace_tmp/fleet.b.metrics.json"
target/release/tdpipe-cli metrics-diff \
  --baseline "$trace_tmp/fleet.a.metrics.json" \
  --current "$trace_tmp/fleet.b.metrics.json"

step "perf-trajectory smoke (quick run + schema check)"
TDPIPE_REQUESTS=200 TDPIPE_PERF_REPS=1 TDPIPE_PERF_SCALE=0 \
  TDPIPE_BENCH_OUT="$trace_tmp/hotpath.json" \
  target/release/perf_trajectory
target/release/perf_trajectory --check "$trace_tmp/hotpath.json"
target/release/perf_trajectory --check BENCH_hotpath.json

step "span/bubble attribution smoke (journal -> reports -> validators)"
target/release/tdpipe-cli run --scheduler td --requests 200 \
  --arrival poisson --rate 24 \
  --journal-out "$trace_tmp/run.journal.json"
target/release/tdpipe-cli span-report \
  --journal "$trace_tmp/run.journal.json" \
  --out "$trace_tmp/run.spans.json" \
  --chrome-out "$trace_tmp/run.spans.trace.json" > /dev/null
target/release/tdpipe-cli span-report --check "$trace_tmp/run.spans.json"
target/release/tdpipe-cli bubble-report \
  --journal "$trace_tmp/run.journal.json" \
  --out "$trace_tmp/run.bubbles.json" > /dev/null
target/release/tdpipe-cli bubble-report --check "$trace_tmp/run.bubbles.json"
target/release/tdpipe-cli validate-trace --file "$trace_tmp/run.spans.trace.json"
# Fleet: per-replica journals merged onto one labelled timeline.
target/release/tdpipe-cli run --requests 120 \
  --arrival poisson --rate 16 \
  --pool l20:1,a100:1 --router kv \
  --journal-out "$trace_tmp/fleet.journal.json"
target/release/tdpipe-cli trace-summary \
  --journal "$trace_tmp/fleet.journal.json.r0,$trace_tmp/fleet.journal.json.r1" \
  --labels l20,a100 > /dev/null
target/release/tdpipe-cli span-report \
  --journal "$trace_tmp/fleet.journal.json.r0,$trace_tmp/fleet.journal.json.r1" \
  --labels l20,a100 \
  --out "$trace_tmp/fleet.spans.json" > /dev/null
target/release/tdpipe-cli span-report --check "$trace_tmp/fleet.spans.json"
target/release/tdpipe-cli bubble-report \
  --journal "$trace_tmp/fleet.journal.json.r0,$trace_tmp/fleet.journal.json.r1" \
  --labels l20,a100 \
  --out "$trace_tmp/fleet.bubbles.json" > /dev/null
target/release/tdpipe-cli bubble-report --check "$trace_tmp/fleet.bubbles.json"

step "benchmark package tests"
cargo test --release --manifest-path src/bin/benchmark/Cargo.toml -q

step "vendored stand-in tests"
for crate in serde serde_json rand proptest; do
  cargo test --release -q --manifest-path "vendor/$crate/Cargo.toml"
done

step "non-test lines per crate (advisory)"
scripts/loc.sh || true

printf '\nci OK: clippy + analyzer + build + layering + tests + debug oracles + smoke + figure artifacts + trace export + metrics gate + sessions smoke + fleet smoke + perf smoke + span/bubble smoke + benchmark tests + vendored tests all green\n'
