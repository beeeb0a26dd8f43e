#!/usr/bin/env sh
# The fleet-scale test list, written once: `just fleet`, scripts/verify.sh
# and the CI `fleet` job all run it.
#
# Covered: the 5000-node full-pipeline cell (--release; prints DESIGN 5g's
# reading), the generated wiring at racks {0, 1, 2, 3, 7} against the
# pinned per-node streams of the paper's Figure 4 and `metric_rank`,
# its instance count and one-frame edges, every generated port routed or
# tapped, each rack's `rack_agg` directly behind its collector in the
# engine's order at racks {2, 3, 7, 250}, a campaign's streams and rankings at racks {1, 2, 3, 7} against
# its one-rack wiring, every collector kind's `nodes = lo..hi` frame shape,
# clocked and free-running, every frame consumer (`knn`, `mavgvec`,
# `ibuffer`, `analysis_*`, `rack_agg`, `metric_rank`) over rack frames,
# malformed frames included, the frame a window closes into against a
# buffered window's means, `knn`'s and `mavgvec`'s frames against a direct
# computation, the row-view ranking over any contiguous rack split against
# a flat matrix, the selected medians against sorted ones across column
# blocks, the rack frames the peer stage releases once ranked, the aligner's
# backlog cap under a silent slot and its whole backlog of complete
# seconds, a node's second rendered over its last one, a sparse reader's
# rendered-on-read frames and syscall counts against an every-second
# reader's, a tap attached after construction on a port nothing is wired
# to, the collector wire accounting and decoder properties, and the bound
# on un-tailed logs.
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
-q -p asdf --lib||pipeline::tests::rack_wiring pipeline::tests::the_generated_dag pipeline::tests::every_generated_port pipeline::tests::each_rack_sum_directly_follows_its_collector
-q -p integration-tests --test stream_equivalence||rack_tree_reduce
-q -p asdf-modules --lib||collectors::tests::node_ rack_agg::tests metric_rank::tests rack_wide rack_row frame rack::tests::popped_frames_are_released_with_their_rows testutil::tests::every_frame_consumer_answers_a_bad_frame_with_a_module_error
-q -p asdf-modules --test window_sums_prop --test rack_merge_prop||running_sums_equal_the_buffered_window_bitwise tree_reduce_is_bitwise_equal_to_flat selected_medians_rank_exactly_as_sorted_ones
-q -p asdf-modules --test knn_frame_prop --test mavgvec_proptest||
-q -p hadoop-logs --lib||sync::tests::a_silent_stream_holds_the_others_to_the_backlog_cap sync::tests::a_backlog_of_complete_timestamps_is_kept_whole
-q -p procsim --lib||node::tests::tick_into
-q -p asdf-core --lib||engine::tests::a_tap_attached_after_construction
-q -p asdf-rpc||
-q -p hadoop-sim --test invariants||untailed_logs
-q -p hadoop-sim --test render_on_read||a_sparse_reader_reads_the_eager_readers_bits
EOF
echo "[fleet] OK" >&2
