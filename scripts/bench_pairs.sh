#!/usr/bin/env sh
# Paired benchmark runs: the working tree against a parent revision, on one
# asdfbench workload, side by side.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> [pairs] [seconds]
#
# Builds asdfbench for <parent-rev> in a git worktree under
# target/bench_pairs/ and for the working tree, then runs the two
# alternately (seed 1, untraced, [seconds] per run, 20 by default), flipping
# which side goes first each pair, for [pairs] pairs (10 by default). Prints
# each pair's four end-to-end metrics, then per metric each side's median
# and quartiles, in how many pairs the working tree read lower, and a
# verdict (every metric here is better lower; `bound` is the metric's
# relative bound in BENCHMARK.json):
#
#   gain        the working tree read lower in at least 9 of 10 pairs, and
#               the medians differ by more than the parent's interquartile
#               range;
#   worse       the working tree's median is above the parent's by more
#               than bound;
#   unresolved  the parent's interquartile range, relative to its median,
#               is wider than bound: these runs cannot tell;
#   neutral     otherwise.
#
# Wall time drifts on a shared host from one hour to the next, so only
# pairs taken side by side support a claim. Fails if a run reports
# `correct: false` or a failed operation, or if the two sides' digests
# differ.
set -eu
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || { echo "usage: $0 <parent-rev> <workload> [pairs] [seconds]" >&2; exit 2; }
rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-20}
metrics="setup_s wall_ms_per_monitored_s cpu_ms_per_monitored_s peak_rss_mb"

sha=$(git rev-parse --verify "$rev^{commit}")
tree=target/bench_pairs/parent
if [ -d "$tree" ]; then
    git -C "$tree" checkout --quiet --detach "$sha"
else
    mkdir -p target/bench_pairs
    git worktree add --quiet --detach "$tree" "$sha"
fi
echo "[bench-pairs] building parent $(git rev-parse --short "$sha") and the working tree" >&2
cargo build --release --offline --quiet --manifest-path "$tree/asdfbench/Cargo.toml"
cargo build --release --offline --quiet --manifest-path asdfbench/Cargo.toml
bin_parent=$tree/asdfbench/target/release/asdfbench
bin_work=asdfbench/target/release/asdfbench

samples=target/bench_pairs/samples.txt
: >"$samples"
digests=""

# Runs one side once; appends `<pair> <side> <metric> <value>` rows.
run() {
    pair=$1
    side=$2
    eval "bin=\$bin_$side"
    out=$("$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 2>/dev/null | tail -n 2)
    result=$(printf '%s\n' "$out" | tail -n 1)
    case "$result" in
        '{"correct":true,'*'"failed":0,'*) ;;
        *)
            echo "[bench-pairs] pair $pair, $side: $result" >&2
            exit 1
            ;;
    esac
    digest=$(printf '%s\n' "$out" | head -n 1 | sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p')
    [ -n "$digest" ] || { echo "[bench-pairs] pair $pair, $side: no digest" >&2; exit 1; }
    digests="$digests $digest"
    line="pair $pair $side:"
    for m in $metrics; do
        v=$(printf '%s\n' "$result" | sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p")
        echo "$pair $side $m $v" >>"$samples"
        line="$line $m=$v"
    done
    echo "$line digest=$digest"
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run "$i" parent
        run "$i" work
    else
        run "$i" work
        run "$i" parent
    fi
    i=$((i + 1))
done

distinct=$(printf '%s\n' $digests | sort -u)
if [ "$(printf '%s\n' "$distinct" | wc -l)" -ne 1 ]; then
    echo "[bench-pairs] digests differ:" $distinct >&2
    exit 1
fi

# `<metric> <bound>` for each end-to-end metric BENCHMARK.json declares.
bounds=$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/.*"name": *"|".*/, ""); name = $0 }
    on && /"bound"/ { gsub(/.*"bound": *|[ ,]*$/, ""); print name, $0 }
' BENCHMARK.json)

echo
echo "$workload, $pairs pairs of ${seconds} s, parent $rev -> working tree (median, quartiles):"
for m in $metrics; do
    bound=$(printf '%s\n' "$bounds" | awk -v m="$m" '$1 == m { print $2 }')
    [ -n "$bound" ] || { echo "[bench-pairs] no bound for $m in BENCHMARK.json" >&2; exit 1; }
    awk -v m="$m" -v bound="$bound" '
        # Linear-interpolated quantile of the sorted a[1..n].
        function q(a, n, p,   h, lo) {
            h = (n - 1) * p + 1
            lo = int(h)
            return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
        }
        function sort(a, n,   i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
                    t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
                }
        }
        $3 == m { v[$1, $2] = $4; if ($1 > n) n = $1 }
        END {
            for (i = 1; i <= n; i++) {
                p[i] = v[i, "parent"]; w[i] = v[i, "work"]
                if (w[i] < p[i]) lower++
            }
            sort(p, n); sort(w, n)
            pm = q(p, n, .5); wm = q(w, n, .5); iqr = q(p, n, .75) - q(p, n, .25)
            if (10 * lower >= 9 * n && pm - wm > iqr) verdict = "gain"
            else if (wm > pm * (1 + bound)) verdict = "worse"
            else if (iqr > pm * bound) verdict = "unresolved"
            else verdict = "neutral"
            printf "  %-26s parent %.4g (%.4g-%.4g)  work %.4g (%.4g-%.4g)  %+.1f%%  work lower in %d/%d  %s\n",
                m, pm, q(p, n, .25), q(p, n, .75),
                wm, q(w, n, .25), q(w, n, .75),
                100 * (wm / pm - 1), lower, n, verdict
        }' "$samples"
done
echo "[bench-pairs] OK: every run correct, 0 failed, digest $distinct" >&2
