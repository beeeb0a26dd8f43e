#!/usr/bin/env sh
# PR gate: the tier-1 recipe plus the `unsafe` audit, the sharded-engine
# differential suite, the fleet suites, a smoke run of the benchmark
# binary, the serve soak, the kernel property suites, the perfwatch and
# snapshot suites, and a warnings-denied doc build. Nothing here times
# anything: engine threads, `serve` and the fleet are measured by asdfbench
# alone, and their correctness — what perfsuite used to re-assert on its
# timed runs — is these suites' (stream equality at threads {1, 2, 4, 8},
# sharded = serial frames, every node ranked, lag bound, shed isolation,
# exact flush counts).
#
# The equivalence tests run the fingerpointing pipeline at engine thread
# counts {1, 2, 4, 8} (a dedicated 4-thread pass included) and compare
# every observable bitwise against the serial engine, so every PR
# exercises the sharded scheduler even on single-core CI. The kernel
# property suites pin the 4-lane distance kernels bitwise to an
# independent reference. The doc build covers first-party crates only (the
# vendored workspace members are not ours to lint).
set -eu
cd "$(dirname "$0")/.."

echo "[verify] tier-1: rustfmt check" >&2
cargo fmt --all -- --check

echo "[verify] tier-1: build" >&2
cargo build --release

echo "[verify] tier-1: tests" >&2
cargo test -q

echo "[verify] tier-1: clippy -D warnings" >&2
cargo clippy --workspace --all-targets -- -D warnings

echo "[verify] unsafe audit: one site, the ShardPool transmute" >&2
./scripts/unsafe_audit.sh

echo "[verify] differential equivalence suite (engine threads, batches, sim shards, racks)" >&2
cargo test -p integration-tests --test shard_equivalence --test golden_figures

echo "[verify] fault matrix: activation properties + golden scenarios + 500-node fleet path" >&2
cargo test -q -p integration-tests --test fault_props
cargo test -p integration-tests --test scenario_matrix

# (`just fleet` also runs the sim-shard / rack sweeps of shard_equivalence
# and the fleet_scale scenario; both suites ran whole just above, bar the
# ignored 5000-node cell, which the fleet list runs in --release.)
echo "[verify] fleet: the one fleet test list (scripts/fleet.sh)" >&2
./scripts/fleet.sh

echo "[verify] bench-smoke: the benchmark binary passes its own checks, untraced and traced" >&2
./scripts/bench_smoke.sh

echo "[verify] serve soak (N-tenant isolation, shed, flush, lag bound, thread budget), the daemon's one-rack DAG vs per-node, + online engine suites" >&2
cargo test -p integration-tests --test serve_soak --test online_engine
cargo test -p asdf --lib -- serve::tests
cargo test -p asdf-core --test online_semantics

echo "[verify] kernel property suites (bitwise pinning to the lane-fold reference)" >&2
cargo test -q -p asdf-modules --test kernel_prop --test classify_proptest

echo "[verify] perfwatch suites (snapshot round-trip, E-Divisive)" >&2
cargo test -q -p integration-tests --test obs_snapshot --test perfwatch

echo "[verify] rustdoc -D warnings (first-party crates)" >&2
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
    -p asdf-core -p asdf-modules -p asdf -p asdf-obs -p bench \
    -p integration-tests -p asdf-examples

echo "[verify] OK" >&2
