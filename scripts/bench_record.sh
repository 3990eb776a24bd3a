#!/usr/bin/env bash
# Record the repository's benchmark as BENCH_<label>.json at the repo root.
#
#   scripts/bench_record.sh <label>
#
# Runs the command that BENCHMARK.json declares once per workload and per
# seed, always with `--trace 0` (end-to-end metrics), and merges what each
# run reports into one file:
#
#   * the run's record, cqabench/out/result-<workload>-seed<n>-trace0.json
#     (metrics with sample counts, parameters, host fingerprint, checks);
#   * `correct`, `attempted` and `failed` from the last line of its output;
#   * per workload, the median of each end-to-end metric over the seeds.
#
# Environment:
#   SEEDS        seeds to run, space-separated (default "1 2 3")
#   RUN_SECONDS  measured seconds per run (default: BENCHMARK.json's
#                run_seconds)
#   SCALE=tiny   pass `--scale tiny`: seconds-long inputs, a smoke test
#
# Exits non-zero when a run fails, reports a wrong answer, or leaves out
# an end-to-end metric that BENCHMARK.json names.
set -euo pipefail

label=${1:?usage: scripts/bench_record.sh <label>}
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

seeds=${SEEDS:-1 2 3}
scale=${SCALE:-full}
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
    echo "bench_record: $workload seed $seed (${seconds}s, $scale)" >&2
    out="$work/$workload-$seed"
    "${command[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" \
      --trace 0 "${scale_args[@]}" > "$out.log"
    tail -n 1 "$out.log" > "$out.last"
    cp "cqabench/out/result-$workload-seed$seed-trace0.json" "$out.record"
  done
done

commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
python3 - "$work" "BENCH_$label.json" "$label" "$commit" "$scale" "$seconds" $seeds <<'EOF'
import json, statistics, sys

work, dest, label, commit, scale, seconds = sys.argv[1:7]
seeds = [int(s) for s in sys.argv[7:]]
spec = json.load(open("BENCHMARK.json"))
metrics = [m["name"] for m in spec["end_to_end"]]
problems, runs, summary = [], [], {}
for w in (w["name"] for w in spec["workloads"]):
    values = {m: [] for m in metrics}
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
        for m in metrics:
            if m in record["metrics"]:
                values[m].append(record["metrics"][m]["value"])
            else:
                problems.append(f"{w} seed {seed}: no {m}")
    summary[w] = {
        m: {
            "median": statistics.median(v),
            "unit": spec_m["unit"],
            "better": spec_m["better"],
            "values": v,
        }
        for m, v, spec_m in zip(metrics, values.values(), spec["end_to_end"])
        if v
    }
out = {
    "label": label,
    "commit": commit,
    "scale": scale,
    "seconds": int(seconds),
    "seeds": seeds,
    "trace": 0,
    "command": spec["command"],
    "summary": summary,
    "runs": runs,
}
with open(dest, "w") as f:
    json.dump(out, f, indent=1)
    f.write("\n")
for w, ms in summary.items():
    row = ", ".join(f"{m} {s['median']:.4g} {s['unit']}" for m, s in ms.items())
    print(f"{w}: {row}")
if problems:
    print("bench_record: " + "; ".join(problems), file=sys.stderr)
    sys.exit(1)
print(f"wrote {dest}")
EOF
