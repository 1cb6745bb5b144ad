#!/usr/bin/env bash
# Builds the benchmark and runs it: every workload in its own process, every
# result checked against the reference aggregation, every metric printed by
# name with its unit. The last line each process prints is the result object
# of the benchmark contract (see ../BENCHMARK.json and README.md).
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#
# Without --workload all four workloads run, one after the other. `--trace 0`
# (the default) is the end-to-end run, `--trace 1` the traced pass with the
# per-layer metrics, a bare `--trace` both.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=(absorb_zipf spill_uniform tiny_pkt lossy_text)
seed=1
seconds=20
passes=(0)

while [ $# -gt 0 ]; do
    case "$1" in
    --workload) workloads=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
        case "${2-}" in
        0 | 1) passes=("$2"); shift 2 ;;
        *) passes=(0 1); shift ;;
        esac
        ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Measure the default datapath on one thread, whatever the caller exported.
unset ASK_SWITCH_SCALAR ASK_HOST_SCALAR ASK_SIM_LANES
for var in $(compgen -e | grep '^ASK_BENCH_' || true); do unset "$var"; done

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release"

commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo n/a)"
echo "# askbench  commit $commit  $(rustc -V)  nproc $(nproc)  seed $seed  seconds $seconds"

for workload in "${workloads[@]}"; do
    for trace in "${passes[@]}"; do
        if [ "$trace" = 1 ]; then exe="$bin/askbench_traced"; else exe="$bin/askbench"; fi
        "$exe" run --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" --out-dir "$here/out"
    done
done
