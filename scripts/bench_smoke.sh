#!/usr/bin/env bash
# Runs the benchmark briefly and fails unless every run checks out and
# every workload's effort counters equal the pinned ones.
#
# `mergebench` exits 0 even when a correctness check fails, and reports
# the verdict on the last line of its output instead. This script runs
# each listed workload for one second, untraced, and fails unless that
# line says `"correct": true` and `"failed": 0`.
#
# It also compares each run's `# counters` line (seed 0) and
# `# second seed 1 counters` line with `scripts/bench_counters.txt`.
# Those counters (steps, SAT calls, tests, `tests_digest`, ...) are
# deterministic, so any difference means a change altered what the
# engine or solver decides, not just how fast. A change that means to
# alter them updates the pin file in the same commit and says so.
#
# Usage: scripts/bench_smoke.sh   (from the repository root)
set -u

pin=scripts/bench_counters.txt
observed=$(mktemp)
trap 'rm -f "$observed"' EXIT

status=0
# The first three are the benchmark's timed workloads (BENCHMARK.json);
# ssm-basename10 is the one workload that runs the paper's static merging.
for workload in explore-wc6 dsm-wc9 fleet-wc6 ssm-basename10; do
    out=$(cargo run --offline --release --quiet --manifest-path mergebench/Cargo.toml -- \
        --workload "$workload" --seed 0 --seconds 1 --trace 0)
    last=$(tail -n 1 <<<"$out")
    if [[ "$last" == *'"correct": true'* && "$last" == *'"failed": 0,'* ]]; then
        echo "$workload: ok"
    else
        echo "$workload: FAILED"
        echo "  last line: $last"
        status=1
    fi
    grep -E '^# (counters|second seed [0-9]+ counters) ' <<<"$out" | sed "s/^/$workload: /" >>"$observed"
done

if diff -u "$pin" "$observed"; then
    echo "counters: equal to $pin"
else
    echo "counters: differ from $pin (diff above: - pinned, + observed)"
    status=1
fi
exit $status
