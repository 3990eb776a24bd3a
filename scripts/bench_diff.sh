#!/usr/bin/env bash
# Compare two benchmark records written by scripts/bench_record.sh.
#
#   scripts/bench_diff.sh <before.json> <after.json>
#
# For every workload and every end-to-end metric that BENCHMARK.json
# names, prints the two medians and the relative change, and marks a
# change in the worse direction larger than the metric's bound as a
# regression. Exits non-zero when any median regresses beyond its bound,
# or when a workload or metric is present in one record only (a metric
# that went missing is reported, never ignored).
#
# The records are parsed with python3, as in bench_record.sh: the
# workspace JSON codec reads integers only.
set -euo pipefail

before=${1:?usage: scripts/bench_diff.sh <before.json> <after.json>}
after=${2:?usage: scripts/bench_diff.sh <before.json> <after.json>}
spec="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"

python3 - "$spec" "$before" "$after" <<'EOF'
import json, sys

spec_path, before_path, after_path = sys.argv[1:4]
spec = json.load(open(spec_path))
before = json.load(open(before_path))["summary"]
after = json.load(open(after_path))["summary"]
problems = []
print(f"{before_path} -> {after_path}")
for w in sorted(set(before) | set(after)):
    if w not in before or w not in after:
        side = "after" if w not in after else "before"
        problems.append(f"workload {w} missing from the {side} record")
        continue
    for m in spec["end_to_end"]:
        name, bound, better = m["name"], m["bound"], m["better"]
        b, a = before[w].get(name), after[w].get(name)
        if b is None or a is None:
            side = "after" if a is None else "before"
            problems.append(f"{w} {name} missing from the {side} record")
            continue
        b, a = b["median"], a["median"]
        change = (a - b) / b if b else (0.0 if a == b else float("inf"))
        worse = change if better == "lower" else -change
        verdict = "REGRESSION" if worse > bound else "ok"
        if verdict != "ok":
            problems.append(f"{w} {name} {change:+.1%} (bound {bound:.0%})")
        print(
            f"  {w:<11} {name:<12} {b:>12.4g} -> {a:<12.4g} {m['unit']:<4}"
            f" {change:+7.1%}  (bound {bound:.0%}, {better} is better)  {verdict}"
        )
if problems:
    print("bench_diff: " + "; ".join(problems), file=sys.stderr)
    sys.exit(1)
print("bench_diff: no end-to-end median regressed beyond its bound")
EOF
