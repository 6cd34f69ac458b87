#!/usr/bin/env bash
# Run the in-repo invariant lint pass (crates/analyzer) against the
# committed ratchet baseline, plus the bounded cluster↔worker supervision
# model checker (with its non-vacuity mutations). The session-KV
# retention code is model-checked by `cargo test -p tdpipe-kvcache`.
#
#   scripts/analyze.sh                    # human-readable, fails on new findings
#   scripts/analyze.sh --json             # machine-readable report
#   scripts/analyze.sh --update-baseline  # re-record analyzer.baseline.json
#
# Extra arguments are passed through to the analyzer binary's lint
# invocation (see `cargo run -p analyzer -- --help`).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --quiet --release -p analyzer -- --check-protocols -q
exec cargo run --quiet --release -p analyzer -- --root . "$@"
