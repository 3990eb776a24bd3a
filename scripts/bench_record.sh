#!/usr/bin/env bash
# Record the repository's benchmark as BENCH_<label>.json at the repo root.
#
#   scripts/bench_record.sh <label>
#
# Runs the command that BENCHMARK.json declares once per workload and per
# seed, with `--trace 0` (end-to-end metrics) unless TRACE=1 asks for
# `--trace 1` (per-layer metrics and span totals), and merges what each
# run reports into one file:
#
#   * the run's record, cqabench/out/result-<workload>-seed<n>-trace<t>.json
#     (metrics with sample counts, parameters, host fingerprint, checks,
#     and in a traced run each layer's span count, total and self time);
#   * `correct`, `attempted` and `failed` from the last line of its output;
#   * per workload, the median of each end-to-end metric over the seeds
#     (`summary`), or in a traced record the median of each per-layer
#     metric that BENCHMARK.json names (`layers`; `summary` stays empty,
#     since a traced run reports no end-to-end metric).
#
# Environment:
#   SEEDS        seeds to run, space-separated (default "1 2 3")
#   RUN_SECONDS  measured seconds per run (default: BENCHMARK.json's
#                run_seconds)
#   SCALE=tiny   pass `--scale tiny`: seconds-long inputs, a smoke test
#   TRACE=1      record traced runs
#
# Exits non-zero when a run fails, reports a wrong answer, or (untraced)
# leaves out an end-to-end metric that BENCHMARK.json names.
set -euo pipefail

label=${1:?usage: scripts/bench_record.sh <label>}
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

seeds=${SEEDS:-1 2 3}
scale=${SCALE:-full}
trace=${TRACE:-0}
case "$trace" in
  0 | 1) ;;
  *) echo "TRACE must be 0 or 1, not $trace" >&2; exit 2 ;;
esac
case "$scale" in
  full) scale_args=() ;;
  tiny) scale_args=(--scale tiny) ;;
  *) echo "SCALE must be full or tiny, not $scale" >&2; exit 2 ;;
esac

read_spec() {
  python3 - "$1" <<'EOF'
import json, sys
spec = json.load(open("BENCHMARK.json"))
field = sys.argv[1]
if field == "command":
    print("\n".join(spec["command"]))
elif field == "workloads":
    print("\n".join(w["name"] for w in spec["workloads"]))
else:
    print(spec[field])
EOF
}

mapfile -t command < <(read_spec command)
mapfile -t workloads < <(read_spec workloads)
seconds=${RUN_SECONDS:-$(read_spec run_seconds)}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for seed in $seeds; do
  for workload in "${workloads[@]}"; do
    echo "bench_record: $workload seed $seed (${seconds}s, $scale, trace $trace)" >&2
    out="$work/$workload-$seed"
    "${command[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" \
      --trace "$trace" "${scale_args[@]}" > "$out.log"
    tail -n 1 "$out.log" > "$out.last"
    cp "cqabench/out/result-$workload-seed$seed-trace$trace.json" "$out.record"
  done
done

commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
python3 - "$work" "BENCH_$label.json" "$label" "$commit" "$scale" "$seconds" "$trace" \
  $seeds <<'EOF'
import json, statistics, sys

work, dest, label, commit, scale, seconds, trace = sys.argv[1:8]
trace = int(trace)
seeds = [int(s) for s in sys.argv[8:]]
spec = json.load(open("BENCHMARK.json"))
metrics = [m["name"] for m in spec["end_to_end"]]
problems, runs, summary, layers = [], [], {}, {}


def medians(values, specs):
    return {
        m["name"]: {
            "median": statistics.median(values[m["name"]]),
            "unit": m["unit"],
            "better": m["better"],
            "values": values[m["name"]],
        }
        for m in specs
        if values[m["name"]]
    }


for w in (w["name"] for w in spec["workloads"]):
    values = {m: [] for m in metrics}
    layer_values = {m["name"]: [] for m in spec["per_layer"]}
    for seed in seeds:
        last = json.load(open(f"{work}/{w}-{seed}.last"))
        record = json.load(open(f"{work}/{w}-{seed}.record"))
        runs.append({
            "workload": w,
            "seed": seed,
            "correct": last["correct"],
            "attempted": last["attempted"],
            "failed": last["failed"],
            "record": record,
        })
        if not last["correct"] or last["failed"]:
            problems.append(f"{w} seed {seed}: correct={last['correct']} failed={last['failed']}")
        for m in layer_values:
            if m in record["metrics"]:
                layer_values[m].append(record["metrics"][m]["value"])
        for m in metrics:
            if m in record["metrics"]:
                values[m].append(record["metrics"][m]["value"])
            elif not trace:
                problems.append(f"{w} seed {seed}: no {m}")
    if trace:
        layers[w] = medians(layer_values, spec["per_layer"])
    else:
        summary[w] = medians(values, spec["end_to_end"])
out = {
    "label": label,
    "commit": commit,
    "scale": scale,
    "seconds": int(seconds),
    "seeds": seeds,
    "trace": trace,
    "command": spec["command"],
    "summary": summary,
    "runs": runs,
}
if trace:
    out["layers"] = layers
with open(dest, "w") as f:
    json.dump(out, f, indent=1)
    f.write("\n")
for w, ms in (layers if trace else summary).items():
    row = ", ".join(f"{m} {s['median']:.4g} {s['unit']}" for m, s in ms.items())
    print(f"{w}: {row}")
if problems:
    print("bench_record: " + "; ".join(problems), file=sys.stderr)
    sys.exit(1)
print(f"wrote {dest}")
EOF
