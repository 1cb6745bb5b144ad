#!/usr/bin/env bash
# Counts production lines of Rust: the lines above each file's first
# `#[cfg(test)]` (the whole file when it has none), for every file under
# crates/*/src. Prints one row per crate and a total; `--files` also prints
# one row per file, before its crate's row.
#
#   scripts/prod_lines.sh [--files]
#
# Run from anywhere inside the repository. Exits 2 on a usage error.
set -euo pipefail

files=0
case "${1:-}" in
    "") ;;
    --files) files=1 ;;
    *)
        echo "usage: scripts/prod_lines.sh [--files]" >&2
        exit 2
        ;;
esac

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

total=0
for crate in crates/*/; do
    crate=${crate%/}
    [ -d "$crate/src" ] || continue
    sum=0
    while IFS= read -r f; do
        n=$(awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f")
        sum=$((sum + n))
        [ "$files" = 1 ] && printf '%7d  %s\n' "$n" "$f"
    done < <(find "$crate/src" -name '*.rs' | sort)
    printf '%7d  %s\n' "$sum" "$crate"
    total=$((total + sum))
done
printf '%7d  total\n' "$total"
