#!/usr/bin/env bash
# Non-test source lines per crate: for each crates/*/src/**/*.rs, the lines
# before the first `#[cfg(test)]`, summed per crate. ROADMAP's north star
# tracks this number; it should go down.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    lines=$(find "$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { skip = 0 } /#\[cfg\(test\)\]/ { skip = 1 } !skip { n++ } END { print n + 0 }')
    printf '%-14s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
done
printf '%-14s %6d\n' total "$total"
