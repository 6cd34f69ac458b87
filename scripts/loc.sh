#!/usr/bin/env bash
# Non-test line count per crate, so a change can report net lines the
# same way every time. Counts every line of `src/**/*.rs` up to the
# first top-level `#[cfg(test)]` item; `proptests.rs` and `tests.rs`
# modules and `tests/` are test code and not counted. The root package
# counts `src/` minus the separately built benchmark package under
# `src/bin/benchmark`.
#
# Support code (the vendored stand-ins under `vendor/`, any
# `crates/*/benches`, and `examples/`) is counted the same way but
# reported apart, as advisory rows with their own subtotal: `total`
# stays the system's own code, and deleting support code still shows.
#
# Usage: scripts/loc.sh        (prints `<lines> <name>` rows, `total`,
#                               then the support rows and `support`)
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$@" -name '*.rs' ! -name proptests.rs ! -name tests.rs -print0 \
    | xargs -0 -r awk 'FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 } live { n++ } END { print n + 0 }'
}

total=0
for dir in crates/*/; do
  n=$(count "$dir/src")
  printf '%7d %s\n' "$n" "$(basename "$dir")"
  total=$((total + n))
done
n=$(count src -path src/bin/benchmark -prune -o)
printf '%7d %s\n' "$n" "(root)"
total=$((total + n))
printf '%7d total\n' "$total"

printf 'support code (advisory, not in total):\n'
support=0
for dir in vendor/*/ crates/*/benches/ examples/; do
  [ -d "$dir" ] || continue
  n=$(count "$dir")
  printf '%7d %s\n' "$n" "${dir%/}"
  support=$((support + n))
done
printf '%7d support\n' "$support"
