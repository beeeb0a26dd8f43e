#!/usr/bin/env bash
# Run the perfsuite and append one schema-versioned record to the BENCH
# history — the exact same record shape whether invoked locally or from
# CI, so the time series `asdf perfwatch` analyzes never forks dialects.
#
# Usage: scripts/bench_record.sh [perfsuite args...]
#
# Environment:
#   BENCH_HISTORY  destination history file (default: BENCH_history.jsonl
#                  at the repository root — the tracked series)
#   BENCH_COMMIT   commit hash override (else GITHUB_SHA, else git HEAD)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "[bench_record] perfsuite -> ${BENCH_HISTORY:-BENCH_history.jsonl}" >&2
# A breached bound exits non-zero only after the suite has written both
# files: keep the status, let the log carry the row the watchdog is about
# to read, and fail last — the run that breached is the one worth reading.
status=0
cargo run --release -p bench --bin perfsuite -- "$@" || status=$?

# The suite appended the record itself; show the tail so logs carry it.
tail -n 1 "${BENCH_HISTORY:-BENCH_history.jsonl}"
exit "$status"
