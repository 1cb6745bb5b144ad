#!/usr/bin/env bash
# Zero-tolerance gate on the work the stick counts, outside benchmark/: runs
# the traced pass of every workload in tests/golden/stick_work.txt at seed 1
# for one second and compares the rows the stick flags deterministic (last
# field `C`: allocations, events, frames and bytes per tuple, switch and host
# counters) with the committed ones. The rows do not depend on --seconds, on
# the core count or on how the merge worker and the simulation interleave.
#
#   scripts/check_work.sh
#
# Exits 0 when every workload prints exactly its committed rows, 1 otherwise
# (with a diff of the rows that moved, up or down). A change that means to
# move a work counter updates the file and says why.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
golden="$repo/tests/golden/stick_work.txt"
status=0
for workload in $(awk '!/^#/ { print $1 }' "$golden" | uniq); do
    want="$(awk -v w="$workload" '$1 == w' "$golden")"
    got="$("$repo/benchmark/run.sh" --workload "$workload" --seed 1 --seconds 1 --trace 1 |
        awk '$NF == "C"')" || got=
    if [ "$got" = "$want" ]; then
        echo "check_work: $workload $(wc -l <<<"$got") rows ok"
    else
        echo "check_work: $workload: rows differ from $golden (< committed, > got)" >&2
        diff <(echo "$want") <(echo "$got") >&2 || true
        status=1
    fi
done
exit "$status"
