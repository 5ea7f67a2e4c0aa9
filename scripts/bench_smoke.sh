#!/usr/bin/env bash
# Runs the benchmark briefly and fails unless every run checks out.
#
# `mergebench` exits 0 even when a correctness check fails, and reports
# the verdict on the last line of its output instead. This script runs
# each listed workload for one second, untraced, and fails unless that
# line says `"correct": true` and `"failed": 0`.
#
# Usage: scripts/bench_smoke.sh   (from the repository root)
set -u

status=0
for workload in explore-wc6 dsm-wc9 fleet-wc6; do
    last=$(cargo run --offline --release --quiet --manifest-path mergebench/Cargo.toml -- \
        --workload "$workload" --seed 0 --seconds 1 --trace 0 | tail -n 1)
    if [[ "$last" == *'"correct": true'* && "$last" == *'"failed": 0,'* ]]; then
        echo "$workload: ok"
    else
        echo "$workload: FAILED"
        echo "  last line: $last"
        status=1
    fi
done
exit $status
