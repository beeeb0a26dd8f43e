# Developer entry points. `just verify` is the PR gate; everything it runs
# is also available through `scripts/verify.sh` on machines without just.

# Tier-1 recipe plus the `unsafe` audit, the pinned-stream equivalence
# suite, the kernel property suites, and a warnings-denied doc build of
# first-party crates.
verify:
    ./scripts/verify.sh

# Tier-1 only: format check, build, tests, lint.
tier1:
    cargo fmt --all -- --check
    cargo build --release
    cargo test -q
    cargo clippy --workspace --all-targets -- -D warnings

# The equivalence suite on its own (streams and simulated node-seconds
# pinned as FNV-1a constants, rack counts and campaign threads that must
# not show) and the golden figure fixtures.
equivalence:
    cargo test -p integration-tests --test stream_equivalence --test collection_streams --test golden_figures

# The kernel property suites: the 4-lane distance kernels pinned bitwise
# to an independent reference, the certificate of the classifier's f32
# screen pinned (ln_f32's error bound over every f32 mantissa and exponent,
# the f32 kernel's rounding bound), and the screened classify equal to the
# exact path on ties, near-midpoint queries and non-finite rows.
kernel-props:
    cargo test -q -p asdf-modules --test kernel_prop --test classify_proptest

# The widened-fault-matrix suites: activation-model property tests, the
# golden per-fault scenarios with the metric-rank accuracy gate, the
# trace-parser fixtures, and the simulator's determinism and scheduling
# suites.
scenarios:
    cargo test -q -p integration-tests --test fault_props
    cargo test -p integration-tests --test scenario_matrix
    cargo test -p hadoop-sim --test fuzz_determinism --test scheduling

# Parsers never panic: the configuration parser and the DAG build, JSON,
# cluster traces, Hadoop log lines and the perf history, each fed arbitrary
# bytes and byte mutations of a valid input.
parsers:
    cargo test -q -p integration-tests --test properties

# The fleet-scale suites on their own: the 500-node rack-path
# fingerpointing scenario, then the fleet test list (scripts/fleet.sh,
# which says what it covers, the rack tree-reduce rankings included, and
# fails when a filter in it matches no test).
fleet:
    cargo test -p integration-tests --test scenario_matrix -- fleet_scale
    ./scripts/fleet.sh

# The benchmark binary (asdfbench, unchanged) at --smoke size on every
# workload BENCHMARK.json lists, untraced and traced: fails unless each
# run reports correct outputs and no failed operation.
bench-smoke:
    ./scripts/bench_smoke.sh

# Paired runs of one asdfbench workload, the working tree against a parent
# revision built in a worktree under target/: alternating sides, each
# pair's end-to-end metrics, then each side's median and quartiles and the
# pairs in which the working tree read lower. Fails on an incorrect run, a
# failed operation or differing digests.
bench-pairs parent workload pairs="10" seconds="20":
    ./scripts/bench_pairs.sh {{parent}} {{workload}} {{pairs}} {{seconds}}

# The N-tenant serve soak: healthy tenants bitwise-identical to their
# solo runs while a flooding tenant sheds, join/leave mid-run, graceful
# shutdown flush, the 8-tenant scheduler-lag bound and the two-thread
# tenant budget; the daemon's own suite (the one-rack tenant DAG bitwise
# equal to the per-node one, 7 instances at any size, bad frames skipped,
# the queue bounded in node-samples); then the suites that guard
# the one online path (online == run_for, lifecycle, stop latency).
serve-soak:
    cargo test -p integration-tests --test serve_soak --test online_engine
    cargo test -p asdf --lib -- serve::tests
    cargo test -p asdf-core --test online_semantics

# The observability suites: the exporters' summary table and Chrome trace
# (obs_layer) and registry snapshots under concurrent writers (obs_snapshot).
obs:
    cargo test -q -p integration-tests --test obs_layer --test obs_snapshot

# Warnings-denied rustdoc build of the first-party packages: the one list
# in scripts/docs.sh, which verify.sh and CI's tier1 job run too.
docs:
    ./scripts/docs.sh

# Regenerate the golden campaign and scenario fixtures after an intended
# result change.
update-fixtures:
    UPDATE_FIXTURES=1 cargo test -p integration-tests --test golden_figures --test scenario_matrix

# Refresh BENCH_campaign.json and append a BENCH_history.jsonl row: the
# four quantities asdfbench cannot see (campaign pool, obs self-overhead,
# extended-fault accuracy cells, micro-kernels), a few seconds on every
# core the host has. Exits non-zero, both files written, only when
# `scan_speedup` is under its bound.
bench:
    cargo run -p bench --bin perfsuite --release

# Run the perfsuite, append a schema-versioned record to the BENCH history,
# then run the watchdog over the rows from this host (advisory: always
# exits 0 unless the history itself is unreadable) — also when the record
# breached a bound, whose status then fails the recipe last.
perfwatch:
    ./scripts/bench_record.sh; status=$?; cargo run --release -p asdf --bin asdf -- perfwatch; exit $status

# The watchdog alone, over the already-recorded history.
perfwatch-report:
    cargo run --release -p asdf --bin asdf -- perfwatch
