#!/bin/sh
# Run every workload once: perfbench/run_all.sh [seed] [seconds] [trace]
set -e
for workload in train predict; do
    python3 perfbench/run.py --workload "$workload" --seed "${1:-0}" \
        --seconds "${2:-35}" --trace "${3:-0}"
done
