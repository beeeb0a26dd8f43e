#!/usr/bin/env sh
# PR gate: the tier-1 recipe plus the `unsafe` audit, the pinned-stream
# equivalence suite, the fleet suites, a smoke run of the benchmark
# binary, the serve soak, the kernel property suites, the parsers'
# never-panic properties, the obs suites, the perfwatch suite, and a
# warnings-denied doc build. Nothing here times
# anything: `serve` and the fleet are measured by asdfbench alone, and
# their correctness is these suites' (pinned streams, every node ranked,
# lag bound, shed isolation, exact flush counts).
#
# The equivalence tests hold synthetic DAGs and campaign streams to FNV-1a
# constants and compare every observable bitwise across rack counts and
# campaign threads. The kernel property suites pin the 4-lane distance
# kernels bitwise to an independent reference and pin the certificate of
# the classifier's f32 screen: ln_f32's error bound over every f32
# mantissa and exponent, the f32 kernel's rounding bound, and the screen
# equal to the exact path on ties, near-midpoint queries and non-finite
# rows. The doc build is scripts/docs.sh, the one list of
# first-party packages (the vendored workspace members are not ours to
# lint).
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

echo "[verify] unsafe audit: no site" >&2
./scripts/unsafe_audit.sh

echo "[verify] equivalence suite (pinned streams and node-seconds, racks, campaign threads) + golden figures" >&2
cargo test -p integration-tests --test stream_equivalence --test collection_streams --test golden_figures

echo "[verify] fault matrix: activation properties + golden scenarios + 500-node fleet path" >&2
cargo test -q -p integration-tests --test fault_props
cargo test -p integration-tests --test scenario_matrix

echo "[verify] simulator determinism: same seed, same cluster; speculation and fault scheduling" >&2
cargo test -p hadoop-sim --test fuzz_determinism --test scheduling

# (`just fleet` also runs the fleet_scale scenario, which ran whole just
# above; the fleet list adds the ignored 5000-node cell in --release.)
echo "[verify] fleet: the one fleet test list (scripts/fleet.sh)" >&2
./scripts/fleet.sh

echo "[verify] bench-smoke: the benchmark binary passes its own checks, untraced and traced" >&2
./scripts/bench_smoke.sh

echo "[verify] serve soak (N-tenant isolation, shed, flush, lag bound, thread budget), the daemon's one-rack DAG vs pinned per-node streams, + online engine suites" >&2
cargo test -p integration-tests --test serve_soak --test online_engine
cargo test -p asdf --lib -- serve::tests
cargo test -p asdf-core --test online_semantics

echo "[verify] kernel property suites (bitwise pinning to the lane-fold reference; the f32 screen's certificate: ln_f32 bound, f32 rounding bound, screen == exact path)" >&2
cargo test -q -p asdf-modules --test kernel_prop --test classify_proptest

echo "[verify] parsers never panic (config + DAG build, JSON, cluster traces, Hadoop logs, perf history)" >&2
cargo test -q -p integration-tests --test properties

echo "[verify] obs suites (exporters, trace nesting, snapshots under concurrent writers)" >&2
cargo test -q -p integration-tests --test obs_layer --test obs_snapshot

echo "[verify] perfwatch suite (E-Divisive)" >&2
cargo test -q -p integration-tests --test perfwatch

echo "[verify] rustdoc -D warnings (scripts/docs.sh, every first-party package)" >&2
./scripts/docs.sh

echo "[verify] OK" >&2
