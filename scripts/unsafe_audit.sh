#!/usr/bin/env sh
# Lists every `unsafe` in first-party source (the `forbid(unsafe_code)`
# attributes aside) and fails unless there is none. A new block has to
# come with its own failing-if-wrong test and an edit here.
set -eu
cd "$(dirname "$0")/.."

sites=$(grep -rn 'unsafe' --include='*.rs' crates examples tests |
    grep -v 'forbid(unsafe_code)' || true)
if [ -n "$sites" ]; then
    printf '%s\n' "$sites"
    echo "unsafe audit: expected no site" >&2
    exit 1
fi
echo "unsafe audit: no site" >&2
