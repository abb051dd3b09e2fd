#!/usr/bin/env bash
# Run every workload of BENCHMARK.json for one seed, untraced and then
# traced, each in its own process; every run prints its metrics by name
# with units, and its result as the last line.
#
# Usage, from anywhere: perfbench/run_all.sh [SEED] [SECONDS]
set -euo pipefail
cd "$(dirname "$0")/.."
SEED="${1:-0}"
RUN_SECONDS="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
for w in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
  for trace in 0 1; do
    echo "== workload=$w seed=$SEED trace=$trace"
    python3 perfbench/run.py --workload "$w" --seed "$SEED" --seconds "$RUN_SECONDS" --trace "$trace"
  done
done
