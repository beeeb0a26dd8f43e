#!/usr/bin/env sh
# Lists every `unsafe` in first-party source (the `forbid(unsafe_code)`
# attributes aside) and fails unless the list is exactly the one
# lifetime-erasing `transmute` in hadoop-sim's ShardPool — the site
# `a_panic_on_the_calling_thread_still_waits_for_every_worker_write`
# guards. A new block has to come with its own failing-if-wrong test and
# an edit here.
set -eu
cd "$(dirname "$0")/.."

sites=$(grep -rn 'unsafe' --include='*.rs' crates examples tests |
    grep -v 'forbid(unsafe_code)' || true)
printf '%s\n' "$sites"
if [ "$(printf '%s\n' "$sites" | cut -d: -f1)" != crates/hadoop-sim/src/shard.rs ]; then
    echo "unsafe audit: expected exactly one site, in crates/hadoop-sim/src/shard.rs" >&2
    exit 1
fi
