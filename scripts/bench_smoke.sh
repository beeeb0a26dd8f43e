#!/usr/bin/env sh
# Runs the benchmark binary at --smoke size on every workload BENCHMARK.json
# lists, untraced and traced, and fails unless each run's last line (the
# benchmark contract's result) says its outputs were correct and no
# operation failed. Two seconds a run: this checks that the benchmark still
# builds, runs and passes its own checks, not how fast anything is.
set -eu
cd "$(dirname "$0")/.."

workloads=$(sed -n '/"workloads"/,/"end_to_end"/s/.*"name": "\(.*\)",/\1/p' BENCHMARK.json)
[ -n "$workloads" ] || { echo "[bench-smoke] no workloads in BENCHMARK.json" >&2; exit 1; }

cargo build --release --offline --quiet --manifest-path asdfbench/Cargo.toml
for workload in $workloads; do
    for trace in 0 1; do
        echo "[bench-smoke] $workload --trace $trace" >&2
        result=$(cargo run --release --offline --quiet --manifest-path asdfbench/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 2 --trace "$trace" --smoke | tail -n 1)
        case "$result" in
            '{"correct":true,'*'"failed":0,'*) ;;
            *)
                echo "[bench-smoke] $workload --trace $trace: $result" >&2
                exit 1
                ;;
        esac
    done
done
echo "[bench-smoke] OK" >&2
