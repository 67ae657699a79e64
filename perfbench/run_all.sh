#!/usr/bin/env bash
# Runs every benchmark workload in turn from the repository root.
# Usage: bash perfbench/run_all.sh [seed] [seconds] [trace 0|1]
# Exits non-zero when any workload fails a correctness check.
set -u
seed=${1:-1}
seconds=${2:-35}
trace=${3:-0}
status=0
for workload in fig11_seq fig11_open_2shard live_tcp_4proxy; do
    echo "== $workload"
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
done
exit $status
