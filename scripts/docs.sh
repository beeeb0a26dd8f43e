#!/usr/bin/env sh
# The warnings-denied rustdoc build of every first-party package, written
# once: `just docs`, scripts/verify.sh and the CI `tier1` job all run it.
# A doc link to a deleted item fails here. The vendored workspace members
# are left out; they are not ours to lint.
set -eu
cd "$(dirname "$0")/.."

RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
    -p asdf-core -p asdf-obs -p asdf-rpc -p asdf-modules -p asdf \
    -p hadoop-sim -p hadoop-logs -p procsim -p bench \
    -p integration-tests -p asdf-examples
