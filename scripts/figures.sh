#!/usr/bin/env bash
# Regenerate every committed figure artifact under `results/`, or check
# that the committed ones are current.
#
# Runs every `tdpipe-bench` binary except `perf_trajectory` (its output
# is wall time, not a deterministic artifact) at the default request
# count, `tables` first, then the figures in number order, then the
# rest. `results/full_run.log` is each binary's stdout under a
# `===== name =====` header, with the output directory written as
# `results/`. Every output is deterministic, so a byte difference means
# the code changed what a figure shows.
#
# Usage: scripts/figures.sh          (rewrite `results/` in place)
#        scripts/figures.sh --check  (write into a temp dir and `cmp`
#                                     every tracked file under
#                                     `results/` except `smoke/`;
#                                     exit 1 on any stale file)
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
  "") check=0 ;;
  --check) check=1 ;;
  *) echo "usage: scripts/figures.sh [--check]" >&2; exit 2 ;;
esac

cargo build --release -q -p tdpipe-bench

all="$(ls crates/bench/src/bin | sed -n 's/\.rs$//p' | grep -vx perf_trajectory | sort -V)"
bins="$(grep -x tables <<<"$all" || true; grep '^fig' <<<"$all" || true; grep -vx -e tables -e 'fig.*' <<<"$all" || true)"

if [[ $check == 1 ]]; then
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' EXIT
else
  out=results
fi

unset TDPIPE_REQUESTS
for b in $bins; do
  echo "===== $b ====="
  TDPIPE_RESULTS_DIR="$out" "target/release/$b"
done | sed "s#^\[saved $out/#[saved results/#" > "$out/full_run.log.tmp"
mv "$out/full_run.log.tmp" "$out/full_run.log"

if [[ $check == 0 ]]; then
  echo "figures: regenerated results/ from $(wc -w <<<"$bins") binaries"
  exit 0
fi

stale=0
for f in $(git ls-files results | grep -v '^results/smoke/'); do
  if ! cmp -s "$f" "$out/${f#results/}"; then
    echo "stale: $f differs from what its binary writes" >&2
    diff -u "$f" "$out/${f#results/}" 2>&1 | head -20 >&2 || true
    stale=1
  fi
done
if [[ $stale == 1 ]]; then
  echo "figures FAILED: regenerate with scripts/figures.sh and commit results/" >&2
  exit 1
fi
echo "figures OK: every tracked file under results/ is current"
