#!/usr/bin/env bash
# Zero-tolerance gate on what the simulator does, outside benchmark/: runs
# every (workload, seed) of tests/golden/stick_digests.txt on the frozen stick
# for one second and compares `sim_digest` — the stick's hash of the result
# maps and every deterministic counter it reads (benchmark/README.md), which
# does not depend on --seconds — with the committed value.
#
#   scripts/check_digests.sh
#
# Exits 0 when every digest is equal and every run ends `ops_failed 0`, 1
# otherwise. A change that means to move a simulated count updates the file
# and says why; a "simulator-only" or "host-only" change leaves it alone.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
status=0
while read -r workload seed want <&3; do
    case "$workload" in '' | '#'*) continue ;; esac
    line="$("$repo/benchmark/run.sh" --workload "$workload" --seed "$seed" --seconds 1 |
        grep ' sim_digest ')" || line=
    got="$(awk '{ print $3 }' <<<"$line")"
    failed="$(awk '{ print $NF }' <<<"$line")"
    if [ "$got" = "$want" ] && [ "$failed" = 0 ]; then
        echo "check_digests: $workload seed $seed $got ok"
    else
        echo "check_digests: $workload seed $seed: want $want ops_failed 0," \
            "got ${got:-no digest} ops_failed ${failed:-?}" >&2
        status=1
    fi
done 3<"$repo/tests/golden/stick_digests.txt"
exit "$status"
