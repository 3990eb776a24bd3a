#!/usr/bin/env bash
# Re-run the five BASELINES.md bench commands in recording order.
#
# Use this when re-measuring on new hardware (e.g. the pending multi-core
# re-measurement noted in ROADMAP.md): run it, then update the tables and
# the host line in BASELINES.md from the printed medians.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -p cqa-bench --bench certk_scaling     # Cert₂ series (E4/E10)
cargo bench -p cqa-bench --bench matching_scaling  # ¬matching series (E7)
cargo bench -p cqa-bench --bench combined          # combined vs literal (E8)
cargo bench -p cqa-bench --bench combined_parallel # 1-thread vs N-thread
cargo bench -p cqa-bench --bench large_scale       # 10⁴..10⁶ series + routing + batch
