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
# While a run goes, its threads are sampled every 100 ms from
# /proc/<pid>/task/*/{stat,status} (the thread's name and CPU ticks,
# then its voluntary and involuntary context switches). Each run prints
# `threads_peak`, the most threads one sample saw, and, per thread role,
# `cpu_s_per_op[<role>]` and `ctx_switches_per_op[<role>]`: the totals
# over the process's life (setup included, as for `cpu_s_per_op`), per
# op attempted. The roles are thread-name prefixes: `main` (the process's
# first thread), `mwp-worker`, `mwp-pump`, `mwp-sched`, `mwp-heartbeat`,
# and `other` for the rest. A thread's counts are those of its last
# sample, so one that exits between samples undercounts by at most one
# period (100 ms of its CPU and its switches in that time). Each of these
# gets a summary line too, lower being better. The sampler's own CPU
# (its shell, `awk` and `sleep`) is taken back out of `cpu_s`.
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

# User and sys seconds from a `times` output, whose lines read like
# `0m1.230000s 0m0.040000s`: the second line's (the children's), or with
# `all` the sum of both (the shell's own and its children's).
children_cpu() {
    awk -v all="${2:-}" 'NR == 2 || all != "" {
        for (f = 1; f <= 2; f++) { split($f, t, /[ms]/); s[f] += 60 * t[1] + t[2] }
    }
    END { printf "%.6f %.6f\n", s[1], s[2] }' "$1"
}

# Sample the threads of process $1 every 100 ms until it exits (or is a
# zombie): per sample and thread, one line "sample tid role cpu_ticks
# ctx_switches". A thread gone between listing and reading is skipped,
# or, when it goes mid-read (`awk` stops on the read error), ends that
# sample early: such a sample may miss threads.
sample_threads() {
    n=0
    while read -r stat 2>/dev/null <"/proc/$1/stat" && case $stat in *") Z "*) false ;; *) true ;; esac; do
        awk -v n="$n" -v pid="$1" '
            function role(tid, name) {
                if (tid == pid) return "main"
                if (name ~ /^mwp-worker/) return "mwp-worker"
                if (name ~ /^mwp-pump/) return "mwp-pump"
                if (name ~ /^mwp-sched/) return "mwp-sched"
                if (name ~ /^mwp-heartbeat/) return "mwp-heartbeat"
                return "other"
            }
            BEGIN {
                for (i = 1; i < ARGC; i++) {
                    tid = ARGV[i]; sub(/.*\//, "", tid)
                    if ((getline st < (ARGV[i] "/stat")) <= 0) continue
                    close(ARGV[i] "/stat")
                    # The name sits in parentheses and may hold any
                    # character; the fields after the last ") " are
                    # numbers: utime and stime are the 12th and 13th.
                    name = st; sub(/^[^(]*\(/, "", name); sub(/\) [^)]*$/, "", name)
                    rest = st; sub(/^.*\) /, "", rest); split(rest, f, " ")
                    cs = 0
                    while ((getline ln < (ARGV[i] "/status")) > 0)
                        if (ln ~ /ctxt_switches:/) { split(ln, g, /[ \t]+/); cs += g[2] }
                    close(ARGV[i] "/status")
                    print n, tid, role(tid, name), f[12] + f[13], cs
                }
            }' /proc/"$1"/task/* 2>/dev/null || :
        n=$((n + 1))
        sleep 0.1
    done
}

# Per-run thread readings from `sample_threads` output $1 for a run of
# $2 ops: "threads_peak N", then per role "cpu_s_per_op[role] X" and
# "ctx_switches_per_op[role] Y" — every named role, 0 where no thread
# had it, so both sides of a pair have a value; `other` when seen. Each
# thread counts as its last sample.
thread_metrics() {
    awk -v ops="$2" -v tck="$(getconf CLK_TCK)" '
        { seen[$1]++; role[$2] = $3; cpu[$2] = $4; cs[$2] = $5 }
        END {
            for (s in seen) if (seen[s] > peak) peak = seen[s]
            print "threads_peak", peak + 0
            split("main mwp-worker mwp-pump mwp-sched mwp-heartbeat", named, " ")
            for (r in named) rc[named[r]] = rs[named[r]] = 0
            for (t in role) { rc[role[t]] += cpu[t]; rs[role[t]] += cs[t] }
            for (r in rc) {
                if (ops > 0) printf "cpu_s_per_op[%s] %.6g\nctx_switches_per_op[%s] %.6g\n", r, rc[r] / tck / ops, r, rs[r] / ops
                else printf "cpu_s_per_op[%s] n/a\nctx_switches_per_op[%s] n/a\n", r, r
            }
        }' "$1" | sort
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
            # `times` runs in this shell, so nothing but the perf run and
            # its sampler (a subshell, which reports its own CPU to be
            # taken back out) is waited for between the two readings.
            times >"$work/times-before"
            status=0
            "$work/$side-target/release/perf" --workload "$workload" --seed 1 --seconds 10 --trace 0 \
                >"$work/out" &
            pid=$!
            (sample_threads "$pid" >"$work/samples"; times >"$work/times-sampler")
            wait "$pid" || status=$?
            times >"$work/times-after"
            out=$(cat "$work/out")
            # "user sys total", each the difference of the two readings
            # less the sampler's.
            split=$(printf '%s %s %s\n' "$(children_cpu "$work/times-before")" "$(children_cpu "$work/times-after")" \
                "$(children_cpu "$work/times-sampler" all)" |
                awk '{ printf "%.2f %.2f %.2f", $3 - $1 - $5, $4 - $2 - $6, $3 + $4 - $1 - $2 - $5 - $6 }')
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
            thread_metrics "$work/samples" "${ops:-0}" | while read -r metric value; do
                echo "run $workload pair=$i side=$side $metric $value" | tee -a "$runs"
            done
        done
        i=$((i + 1))
    done

    threads=$(awk -v w="$workload" '$2 == w && $5 ~ /^(threads_peak|(cpu_s|ctx_switches)_per_op\[)/ { print $5 }' "$runs" |
        sort -u)
    for metric in "$@" cpu_s_per_op $threads; do
        case $metric in
        cpu_s_per_op* | ctx_switches_per_op* | threads_peak) better=lower ;;
        *) better=$(better "$metric") ;;
        esac
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
