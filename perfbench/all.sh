#!/usr/bin/env bash
# Run every workload of the wellround benchmark: end-to-end metrics, then
# the traced per-layer metrics.  Usage: bash perfbench/all.sh [seed] [seconds]
set -u
seed="${1:-1}"
seconds="${2:-30}"
cd "$(dirname "$0")/.."
status=0
for workload in retract-stream congruence-sweep sl3-global; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" || status=1
    done
done
exit "$status"
