#!/usr/bin/env bash
# Print the non-test lines of Rust source per file, then their total.
#
# Usage: scripts/loc.sh [path...]   (default: crates)
#
# A file's non-test lines are the lines above its first top-level
# `#[cfg(test)]`, the one in column 0 that opens its test module (the
# whole file when it has none); a test-only item inside an `impl` does
# not end the count. Only files under a `src/` directory
# count; `tests/`, `benches/` and `examples/` directories are skipped,
# since everything in them is test, bench or example code. Paths may be
# directories or single files.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- crates

total=0
while IFS= read -r file; do
  n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
  printf '%7d %s\n' "$n" "$file"
  total=$((total + n))
done < <(
  find "$@" -name '*.rs' -path '*/src/*' \
    -not -path '*/tests/*' -not -path '*/benches/*' -not -path '*/examples/*' \
    -not -path '*/target/*' | sort
)
printf '%7d total\n' "$total"
