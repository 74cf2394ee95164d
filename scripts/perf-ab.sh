#!/bin/sh
# A/B the working tree against a parent revision with the benchmark.
#
#   scripts/perf-ab.sh <parent-rev> <workload> <pairs> <metric>...
#
# Builds `perf` twice, both outside the repo (under a fresh `mktemp -d`
# directory, which is kept and printed): the parent from a clean
# `git archive` of <parent-rev>, the change from the working tree. Then
# runs <pairs> pairs of `perf --workload <workload> --seed 1 --seconds 10
# --trace 0`, alternating which side runs first (odd pairs: parent
# first). Prints every run's value of each <metric>, then per metric each
# side's median, the pairs the change won (by the metric's direction in
# BENCHMARK.json), the change in the median, and the parent's
# interquartile range. A claimed gain needs the change to win nine pairs
# in ten and its median gain to exceed the parent's IQR.
#
# Changes nothing in the repo; run from anywhere.
set -eu
if [ $# -lt 4 ]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> <metric>..." >&2
    exit 2
fi
parent=$1 workload=$2 pairs=$3
shift 3
repo=$(cd "$(dirname "$0")/.." && pwd)
rev=$(git -C "$repo" rev-parse --verify "$parent^{commit}")
work=$(mktemp -d)
echo "# parent $rev, change = working tree of $repo, builds in $work"

mkdir "$work/parent-src"
git -C "$repo" archive "$rev" | tar -x -C "$work/parent-src"
for side in parent change; do
    src=$repo
    [ "$side" = parent ] && src=$work/parent-src
    cargo build --release --offline --quiet --manifest-path "$src/perf/Cargo.toml" \
        --target-dir "$work/$side-target"
done

# The direction ("higher" or "lower") BENCHMARK.json gives a metric.
better() {
    sed -n "s/.*\"name\": \"$1\".*\"better\": \"\([a-z]*\)\".*/\1/p" "$repo/BENCHMARK.json" | head -n 1
}

runs=$work/runs.txt
: >"$runs"
i=1
while [ "$i" -le "$pairs" ]; do
    order="parent change"
    [ $((i % 2)) -eq 0 ] && order="change parent"
    for side in $order; do
        out=$("$work/$side-target/release/perf" --workload "$workload" --seed 1 --seconds 10 --trace 0)
        for metric in "$@"; do
            value=$(printf '%s\n' "$out" | awk -v m="$metric" '$1 == "metric" && $2 == m { print $3 }')
            echo "run pair=$i side=$side $metric ${value:-n/a}" | tee -a "$runs"
        done
    done
    i=$((i + 1))
done

for metric in "$@"; do
    awk -v m="$metric" -v better="$(better "$metric")" '
        function sort(a, n,   i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        # Quantile p of the sorted a[1..n], linear between order statistics.
        function q(a, n, p,   h, k) {
            h = (n - 1) * p + 1; k = int(h)
            return k >= n ? a[n] : a[k] + (h - k) * (a[k + 1] - a[k])
        }
        $4 == m && $5 != "n/a" {
            split($2, pair, "="); split($3, side, "=")
            v[side[2], pair[2]] = $5
            if (side[2] == "parent") p[++np] = $5; else c[++nc] = $5
        }
        END {
            if (np == 0 || nc == 0) { print m ": no values"; exit }
            for (k in v) { split(k, at, SUBSEP); if (at[1] == "parent") pairs[at[2]] = 1 }
            for (i in pairs) {
                if (!(("change", i) in v)) continue
                n++
                d = v["change", i] - v["parent", i]
                if ((better == "lower" && d < 0) || (better != "lower" && d > 0)) won++
            }
            sort(p, np); sort(c, nc)
            mp = q(p, np, 0.5); mc = q(c, nc, 0.5)
            printf "%s (%s is better): parent median %g, change median %g (%+.1f%%), change won %d of %d pairs, parent IQR %g\n",
                m, better == "" ? "?" : better, mp, mc, mp == 0 ? 0 : 100 * (mc - mp) / mp, won, n,
                q(p, np, 0.75) - q(p, np, 0.25)
        }' "$runs"
done
