#!/usr/bin/env sh
# The fleet-scale test list, written once: `just fleet`, scripts/verify.sh
# and the CI `fleet` job all run it.
#
# Covered: the 5000-node full-pipeline cell (--release; prints DESIGN 5g's
# reading), the generated wiring at racks {0, 1, 2, 3, 7} against the
# paper's per-node Figure 4 and the pinned per-node `metric_rank` stream,
# its instance count and one-frame edges, every generated port routed or
# tapped, a campaign's streams and rankings at racks {1, 2, 3, 7} against
# its one-rack wiring, every collector kind's `nodes = lo..hi` frame against one
# instance per node, `knn` / `analysis_*` / `rack_agg` / `metric_rank` over
# rack rows (malformed frames included), the running window sums against
# a buffered window, a node's second rendered over its last one, a tap
# attached after construction on a port nothing is wired to, the collector
# wire accounting and decoder properties, and the bound on un-tailed logs.
#
# One line per `cargo test` run: its arguments | harness flags | name
# filters. Before a line runs, every filter must match at least one test
# (`-- --list`), and a line without filters must list some test, so a
# renamed test cannot drop out of the list unnoticed.
set -eu
cd "$(dirname "$0")/.."

while IFS='|' read -r args flags filters; do
    # shellcheck disable=SC2086 # the fields are word lists
    listed=$(cargo test $args -- --list $flags </dev/null 2>/dev/null | grep ': test$') || true
    if [ -z "$listed" ]; then
        echo "[fleet] cargo test $args lists no test" >&2
        exit 1
    fi
    for filter in $filters; do
        if ! printf '%s\n' "$listed" | grep -qF -- "$filter"; then
            echo "[fleet] no test matches \`$filter\` in cargo test $args" >&2
            exit 1
        fi
    done
    echo "[fleet] cargo test $args -- $flags $filters" >&2
    # shellcheck disable=SC2086
    cargo test $args -- $flags $filters </dev/null
done <<'EOF'
--release -p integration-tests --test scenario_matrix|--ignored --nocapture|fleet_scale_full_pipeline
-q -p asdf --lib||pipeline::tests::rack_wiring pipeline::tests::the_generated_dag pipeline::tests::every_generated_port
-q -p integration-tests --test stream_equivalence||rack_tree_reduce
-q -p asdf-modules --lib||collectors::tests::node_ rack_agg::tests metric_rank::tests rack_wide rack_row frame
-q -p asdf-modules --test window_sums_prop --test knn_frame_prop||
-q -p procsim --lib||node::tests::tick_into
-q -p asdf-core --lib||engine::tests::a_tap_attached_after_construction
-q -p asdf-rpc||
-q -p hadoop-sim --test invariants||untailed_logs
EOF
echo "[fleet] OK" >&2
