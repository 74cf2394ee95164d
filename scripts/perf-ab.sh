#!/bin/sh
# A/B the working tree against a parent revision with the benchmark.
#
#   scripts/perf-ab.sh <parent-rev> <workloads> <pairs> <metric>...
#
# <workloads> is one workload, a comma-separated list of them, or `all`
# (every workload BENCHMARK.json declares), so one call can check a
# claim and its controls. Builds `perf` twice, both outside the repo
# (under a fresh `mktemp -d` directory, which is kept and printed): the
# parent from a clean `git archive` of <parent-rev>, the change from the
# working tree. Then, one workload after another, runs <pairs> pairs of
# `perf --workload <workload> --seed 1 --seconds 10 --trace 0`,
# alternating which side runs first (odd pairs: parent first). Prints
# every run's value of each <metric> and its CPU seconds, then per
# workload and metric each side's median, the pairs the change won (by
# the metric's direction in BENCHMARK.json), the change in the median,
# and the parent's interquartile range. A metric a workload does not
# print reads n/a. A claimed gain needs the change to win nine pairs in
# ten and its median gain to exceed the parent's IQR.
#
# A run's CPU seconds are its user + sys time, the difference in the
# children's times POSIX `times` reports around it; each run line also
# gives the two apart, `user_s` and `sys_s`, from the same readings
# (a change to user-space copies moves the one and not the other). `cpu_s_per_op`
# divides them by the run's `ops_attempted` and gets the same summary
# line as a metric (lower is better): on a shared host, where the CPU a
# run gets swings between one and two cores' worth, it can separate
# sides that wall-time metrics do not.
#
# A run that exits non-zero (a failed op) is listed as failed, and its
# values stay out of the summary; the pairs go on. The failures are
# printed per side after the summary, and the script then exits 1.
#
# Changes nothing in the repo; run from anywhere.
set -eu
if [ $# -lt 4 ]; then
    echo "usage: $0 <parent-rev> <workload>[,<workload>...]|all <pairs> <metric>..." >&2
    exit 2
fi
parent=$1 workloads=$2 pairs=$3
shift 3
repo=$(cd "$(dirname "$0")/.." && pwd)
if [ "$workloads" = all ]; then
    workloads=$(sed -n 's/.*{"name": "\([a-z0-9_]*\)", "why".*/\1/p' "$repo/BENCHMARK.json")
else
    workloads=$(printf '%s\n' "$workloads" | tr ',' ' ')
fi
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

# The children's user and sys seconds, from the second line of a
# `times` output like `0m1.230000s 0m0.040000s`.
children_cpu() {
    awk 'NR == 2 {
        for (f = 1; f <= 2; f++) { split($f, t, /[ms]/); printf "%s%.6f", f == 1 ? "" : " ", 60 * t[1] + t[2] }
        print ""
    }' "$1"
}

runs=$work/runs.txt
failures=$work/failures.txt
: >"$runs"
: >"$failures"
for workload in $workloads; do
    i=1
    while [ "$i" -le "$pairs" ]; do
        order="parent change"
        [ $((i % 2)) -eq 0 ] && order="change parent"
        for side in $order; do
            # `times` runs in this shell, so nothing but the perf run is
            # waited for between the two readings.
            times >"$work/times-before"
            status=0
            out=$("$work/$side-target/release/perf" --workload "$workload" --seed 1 --seconds 10 --trace 0) ||
                status=$?
            times >"$work/times-after"
            # "user sys total", each the difference of the two readings.
            split=$(printf '%s %s\n' "$(children_cpu "$work/times-before")" "$(children_cpu "$work/times-after")" |
                awk '{ printf "%.2f %.2f %.2f", $3 - $1, $4 - $2, $3 + $4 - $1 - $2 }')
            user=${split%% *} cpu=${split##* }
            sys=${split#* }
            sys=${sys%% *}
            if [ "$status" -ne 0 ]; then
                echo "run $workload pair=$i side=$side failed: exit $status, cpu_s $cpu" | tee -a "$failures"
                continue
            fi
            ops=$(printf '%s\n' "$out" | awk '$1 == "ops_attempted" { print $2 }')
            per_op=$(awk -v c="$cpu" -v n="${ops:-0}" 'BEGIN { if (n > 0) printf "%.6g", c / n; else print "n/a" }')
            for metric in "$@"; do
                value=$(printf '%s\n' "$out" | awk -v m="$metric" '$1 == "metric" && $2 == m { print $3 }')
                echo "run $workload pair=$i side=$side $metric ${value:-n/a} cpu_s $cpu user_s $user sys_s $sys" |
                    tee -a "$runs"
            done
            echo "run $workload pair=$i side=$side cpu_s_per_op $per_op cpu_s $cpu user_s $user sys_s $sys" >>"$runs"
        done
        i=$((i + 1))
    done

    for metric in "$@" cpu_s_per_op; do
        better=lower
        [ "$metric" = cpu_s_per_op ] || better=$(better "$metric")
        awk -v w="$workload" -v m="$metric" -v better="$better" '
            function sort(a, n,   i, j, t) {
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
            }
            # Quantile p of the sorted a[1..n], linear between order statistics.
            function q(a, n, p,   h, k) {
                h = (n - 1) * p + 1; k = int(h)
                return k >= n ? a[n] : a[k] + (h - k) * (a[k + 1] - a[k])
            }
            $2 == w && $5 == m && $6 != "n/a" {
                split($3, pair, "="); split($4, side, "=")
                v[side[2], pair[2]] = $6
                if (side[2] == "parent") p[++np] = $6; else c[++nc] = $6
            }
            END {
                if (np == 0 || nc == 0) { print w ": " m ": no values"; exit }
                for (k in v) { split(k, at, SUBSEP); if (at[1] == "parent") pairs[at[2]] = 1 }
                for (i in pairs) {
                    if (!(("change", i) in v)) continue
                    n++
                    d = v["change", i] - v["parent", i]
                    if ((better == "lower" && d < 0) || (better != "lower" && d > 0)) won++
                }
                sort(p, np); sort(c, nc)
                mp = q(p, np, 0.5); mc = q(c, nc, 0.5)
                printf "%s: %s (%s is better): parent median %g, change median %g (%+.1f%%), change won %d of %d pairs, parent IQR %g\n",
                    w, m, better == "" ? "?" : better, mp, mc, mp == 0 ? 0 : 100 * (mc - mp) / mp, won, n,
                    q(p, np, 0.75) - q(p, np, 0.25)
            }' "$runs"
    done
done

if [ -s "$failures" ]; then
    for side in parent change; do
        echo "$side: $(grep -c "side=$side failed" "$failures") failed runs"
    done
    cat "$failures"
    exit 1
fi
