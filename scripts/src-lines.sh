#!/usr/bin/env bash
# Non-test source lines per crate and in total.
#
# Counts every `.rs` file under `src/` (the root package) and
# `crates/*/src/`, each up to (not including) its first `#[cfg(test)]`
# line; a file without one counts in full. Report only: it never fails
# on a number.
#
# Usage: scripts/src-lines.sh    (from anywhere inside the repository)
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk 'FNR == 1 { on = 1 } /^[[:space:]]*#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }'
}

total=0
crates=0
for dir in src crates/*/src; do
    n=$(count "$dir")
    total=$((total + n))
    [ "$dir" = src ] || crates=$((crates + n))
    printf '%7d  %s\n' "$n" "$dir"
done
printf '%7d  crates/*/src\n' "$crates"
printf '%7d  total\n' "$total"
