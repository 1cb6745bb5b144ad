#!/usr/bin/env bash
# A/B of two commits on the frozen stick (benchmark/), the procedure README
# "Measuring a change" demands for every claimed gain.
#
#   scripts/ab.sh <refA> <refB> [--pairs N] [--seconds S] [--seed K] [--workload W]
#                               [--claim <metric>:<workload>]
#
# Each ref is checked out (git archive) under target/ab/<commit>/ and its
# own benchmark/ is built --release --offline into a target dir of its own,
# so A and B never share a build. Then, per workload, N pairs of
# `askbench run` — one process per run, A first in odd pairs, B first in
# even ones. Printed per (workload, end-to-end metric): both medians with
# their quartiles, B/A, and the pairs B won (ties count for neither); for
# the three simulated metrics `identical` or `DIFFERS`.
#
# `--claim tuples_per_s:spill_uniform` applies README's rule for a claimed
# gain to that timed end-to-end metric: `claim met` only when B is a
# different commit, won at least nine tenths of the pairs run and the medians
# differ, in the better direction, by more than the distance between A's
# quartiles. Every other (workload, timed end-to-end metric) whose median
# got worse by more than its `bound` in BENCHMARK.json is printed as `WORSE`.
#
# Exits 0 when every run verified (ops_failed 0), no simulated metric
# differs and, with --claim, the claim is met and nothing is WORSE; 1
# otherwise, 2 on a usage or build error. To measure uncommitted work, pass
# `$(git stash create)` as a ref after `git add -A`.
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh <refA> <refB> [--pairs N] [--seconds S] [--seed K] [--workload W]" \
        "[--claim <metric>:<workload>]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
ref_a="$1" ref_b="$2"
shift 2
pairs=10 seconds=20 seed=1 claim=
workloads=(absorb_zipf spill_uniform tiny_pkt lossy_text)
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
    --pairs) pairs="$2" ;;
    --seconds) seconds="$2" ;;
    --seed) seed="$2" ;;
    --workload) workloads=("$2") ;;
    --claim) claim="$2" ;;
    *) usage ;;
    esac
    shift 2
done

timed=(tuples_per_s cpu_s_per_mtuple peak_rss_mb setup_s)
if [ -n "$claim" ]; then
    case " ${timed[*]} " in *" ${claim%%:*} "*) ;; *) usage ;; esac
    case " ${workloads[*]} " in *" ${claim#*:} "*) ;; *) usage ;; esac
fi

repo="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
work="$repo/target/ab"
# `name bound` of every end-to-end metric of the contract.
bounds="$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, ""); name = $2 }
    on && /"bound"/ { gsub(/[",]/, ""); print name, $2 }' "$repo/BENCHMARK.json")"

# Measure the default datapath on one thread, whatever the caller exported.
unset CARGO_TARGET_DIR
for var in $(compgen -e | grep '^ASK_BENCH_' || true); do unset "$var"; done

commit_of() {
    git -C "$repo" rev-parse --verify --quiet "$1^{commit}" || {
        echo "ab.sh: $1 is not a commit" >&2
        exit 2
    }
}

# Checks a commit out and builds its benchmark; the binaries land in
# $work/<commit>/target/release.
prepare() {
    local dir="$work/$1"
    if [ ! -d "$dir/src" ]; then
        rm -rf "$dir/src.partial"
        mkdir -p "$dir/src.partial"
        git -C "$repo" archive "$1" | tar -x -C "$dir/src.partial"
        mv "$dir/src.partial" "$dir/src"
    fi
    CARGO_TARGET_DIR="$dir/target" cargo build --release --offline \
        --manifest-path "$dir/src/benchmark/Cargo.toml" >&2 || exit 2
}

commit_a="$(commit_of "$ref_a")"
commit_b="$(commit_of "$ref_b")"
prepare "$commit_a"
prepare "$commit_b"
bin_a="$work/$commit_a/target/release"
bin_b="$work/$commit_b/target/release"

runs="$(mktemp)"
trap 'rm -f "$runs"' EXIT
failed=0

# One run; its metric rows go to $runs as `side pair workload metric value kind`.
run_side() {
    local side="$1" bin="$2" pair="$3" workload="$4" out
    if ! out="$("$bin/askbench" run --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0)"; then
        echo "ab.sh: side $side failed on $workload (pair $pair)" >&2
        failed=1
    fi
    awk -v side="$side" -v pair="$pair" '
        $2 == "sim_digest" { print side, pair, $1, "sim_digest", $3, "D"; next }
        NF == 5 && ($5 == "T" || $5 == "C") { print side, pair, $1, $2, $3, $5 }
    ' <<<"$out" >>"$runs"
}

echo "# ab.sh  A $ref_a (${commit_a:0:7})  B $ref_b (${commit_b:0:7})" \
    " pairs $pairs  seconds $seconds  seed $seed  nproc $(nproc)"
for workload in "${workloads[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        echo "ab.sh: $workload pair $pair/$pairs" >&2
        if [ $((pair % 2)) -eq 1 ]; then
            run_side A "$bin_a" "$pair" "$workload"
            run_side B "$bin_b" "$pair" "$workload"
        else
            run_side B "$bin_b" "$pair" "$workload"
            run_side A "$bin_a" "$pair" "$workload"
        fi
    done
done

same_commit=0
[ "$commit_a" != "$commit_b" ] || same_commit=1
awk -v pairs="$pairs" -v claim="$claim" -v bounds="$bounds" -v same_commit="$same_commit" '
    function sorted(values, n, out,    i, j, v) {
        for (i = 1; i <= n; i++) {
            v = values[i]
            for (j = i - 1; j >= 1 && out[j] > v; j--) out[j + 1] = out[j]
            out[j + 1] = v
        }
    }
    # Quantile q of n sorted values, linear interpolation between ranks.
    function quantile(s, n, q,    pos, lo) {
        pos = 1 + (n - 1) * q
        lo = int(pos)
        return lo >= n ? s[n] : s[lo] + (s[lo + 1] - s[lo]) * (pos - lo)
    }
    function summary(side, key,    i, n, v, s) {
        n = count[side, key]
        for (i = 1; i <= n; i++) v[i] = value[side, key, i]
        sorted(v, n, s)
        med[side] = quantile(s, n, 0.5)
        spread[side] = quantile(s, n, 0.75) - quantile(s, n, 0.25)
        return sprintf("%14.6g [%11.6g ..%11.6g]", med[side], quantile(s, n, 0.25), quantile(s, n, 0.75))
    }
    {
        side = $1; key = $3 SUBSEP $4
        if (!(key in kind)) { order[++keys] = key; kind[key] = $6 }
        value[side, key, $2] = $5
        count[side, key]++
    }
    END {
        lower["cpu_s_per_mtuple"] = lower["peak_rss_mb"] = lower["setup_s"] = 1
        end_to_end["tuples_per_s"] = end_to_end["cpu_s_per_mtuple"] = 1
        end_to_end["peak_rss_mb"] = end_to_end["setup_s"] = 1
        n = split(bounds, word, /[ \n]+/)
        for (i = 1; i < n; i += 2) bound[word[i]] = word[i + 1]
        printf "%-14s %-18s %-41s %-41s %7s  %s\n", "workload", "metric", "A median [q1 .. q3]", "B median [q1 .. q3]", "B/A", "B wins"
        for (k = 1; k <= keys; k++) {
            key = order[k]
            split(key, part, SUBSEP)
            if (kind[key] == "T") {
                if (!(part[2] in end_to_end)) continue
                a = summary("A", key); b = summary("B", key)
                wins = 0
                for (i = 1; i <= pairs; i++) {
                    va = value["A", key, i]; vb = value["B", key, i]
                    if (part[2] in lower ? vb < va : vb > va) wins++
                }
                printf "%-14s %-18s %s %s %7.3f  %d/%d\n", part[1], part[2], a, b, med["B"] / med["A"], wins, pairs
                gain = part[2] in lower ? med["A"] - med["B"] : med["B"] - med["A"]
                if (part[2] ":" part[1] == claim) {
                    met = !same_commit && wins * 10 >= pairs * 9 && gain > spread["A"]
                    verdict = sprintf("claim %s  %s  B/A %.3f  B won %d/%d  median gain %.6g against A quartile distance %.6g%s", \
                        claim, met ? "met" : "NOT met", med["B"] / med["A"], wins, pairs, gain, spread["A"], \
                        same_commit ? "  (A and B are one commit)" : "")
                } else if (claim != "" && -gain > bound[part[2]] * med["A"]) {
                    worse = worse sprintf("WORSE  %s %s  B/A %.3f  bound %s\n", part[1], part[2], med["B"] / med["A"], bound[part[2]])
                }
                continue
            }
            same = count["A", key] == pairs && count["B", key] == pairs
            for (i = 1; i <= pairs && same; i++)
                same = (value["A", key, i] "") == (value["A", key, 1] "") && (value["B", key, i] "") == (value["A", key, 1] "")
            if (kind[key] == "D") {
                printf "%-14s %-18s A %s  B %s  %s\n", part[1], part[2], value["A", key, 1], value["B", key, 1], same ? "same" : "differs"
            } else {
                printf "%-14s %-18s A %-14s B %-14s %s\n", part[1], part[2], value["A", key, 1], value["B", key, 1], same ? "identical" : "DIFFERS"
                if (!same) differs = 1
            }
        }
        if (claim != "") {
            print verdict
            printf "%s", worse
            if (!met || worse != "") exit 1
        }
        exit differs
    }
' "$runs" || failed=1

exit "$failed"
