#!/usr/bin/env bash
# Summarizes the timed steps of a traced stick run: for every span recorded
# inside an iteration (`iteration` and its `build_service`, `submit`, `run`,
# `collect`, `verify`), the number of iterations and the median and
# quartiles of its wall time, in ms.
#
#   scripts/spans.sh <trace.json>...
#
# The trace files are what `benchmark/run.sh --trace 1` writes to
# benchmark/out/<workload>.trace.json. Layer drives (spans outside any
# iteration) are skipped. Quartiles interpolate between ranks as in ab.sh.
# Exits 1 when a file holds no iteration span, 2 on a usage error.
set -euo pipefail

[ $# -ge 1 ] || {
    echo "usage: scripts/spans.sh <trace.json>..." >&2
    exit 2
}

for trace in "$@"; do
    awk -v file="$trace" '
        function field(name,    m) {
            if (!match($0, "\"" name "\":[^,}]*")) return ""
            m = substr($0, RSTART + length(name) + 3, RLENGTH - length(name) - 3)
            gsub(/"/, "", m)
            return m
        }
        function quantile(s, n, q,    pos, lo) {
            pos = 1 + (n - 1) * q
            lo = int(pos)
            return lo >= n ? s[n] : s[lo] + (s[lo + 1] - s[lo]) * (pos - lo)
        }
        NR == 1 { workload = field("workload"); seed = field("seed"); next }
        /"name":/ {
            iteration = field("iteration")
            if (iteration == "null") next
            name = field("name")
            if (!(name in count)) order[++names] = name
            ms[name, ++count[name]] = (field("end_ns") - field("start_ns")) / 1e6
        }
        END {
            if (names == 0) { print "spans.sh: no iteration spans in " file > "/dev/stderr"; exit 1 }
            printf "# %s  workload %s  seed %s\n", file, workload, seed
            printf "%-14s %5s %12s %12s %12s\n", "span", "n", "median_ms", "q1_ms", "q3_ms"
            for (k = 1; k <= names; k++) {
                name = order[k]; n = count[name]
                for (i = 1; i <= n; i++) {
                    v = ms[name, i]
                    for (j = i - 1; j >= 1 && s[j] > v; j--) s[j + 1] = s[j]
                    s[j + 1] = v
                }
                printf "%-14s %5d %12.3f %12.3f %12.3f\n", name, n, \
                    quantile(s, n, 0.5), quantile(s, n, 0.25), quantile(s, n, 0.75)
            }
        }
    ' "$trace"
done
