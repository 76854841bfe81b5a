#!/usr/bin/env bash
# Dead-pub gate: every public item must have a non-test caller. Lists each
# `pub fn`, `pub(crate) fn` and `pub struct|enum|trait|type|const|static`
# name defined in non-test source (the lines before a file's first
# `#[cfg(test)]`, the cut scripts/loc.sh makes) under crates/*/src,
# benchmark/src and examples, and fails on any name that occurs nowhere in
# that text but at its own definition, on `pub use` re-export lines or in
# comments. The gate matches names, not paths, so it is blind to one case:
# a name that also occurs as a variable, a field or another item's name
# (`new`, `stats`, `merge`, `graph`) counts as a caller, and a dead item
# of that name passes. A name kept on purpose goes in
# scripts/dead_pub.allow as `name: reason`; an entry whose name is used
# again (or gone) fails too, so the list cannot go stale. Run from
# anywhere; exits 1 naming each name.
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."

allow=scripts/dead_pub.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Non-test code as `file:line<TAB>text`, without comment lines, trailing
# `// ...` comments, or `pub use` items (which may span lines).
find crates/*/src benchmark/src examples -name '*.rs' -print0 | sort -z |
    xargs -0 awk '
        FNR == 1 { skip = 0; reexport = 0 }
        /#\[cfg\(test\)\]/ { skip = 1 }
        skip { next }
        reexport { if (/;/) reexport = 0; next }
        /^[[:space:]]*pub(\([a-z]+\))? use / { if (!/;/) reexport = 1; next }
        /^[[:space:]]*\/\// { next }
        { line = $0; sub(/[[:space:]]\/\/.*$/, "", line); print FILENAME ":" FNR "\t" line }
    ' >"$tmp/code"

# Definitions as `name<TAB>file:line`.
sed -nE 's/^([^\t]*)\t[[:space:]]*pub(\(crate\))? ((const|unsafe) )*fn ([A-Za-z_][A-Za-z0-9_]*).*/\5\t\1/p;
         s/^([^\t]*)\t[[:space:]]*pub (struct|enum|trait|type|const|static) ([A-Za-z_][A-Za-z0-9_]*).*/\3\t\1/p' \
    "$tmp/code" | sort >"$tmp/defs"

# How often each identifier occurs in the code, definitions included.
cut -f2- "$tmp/code" | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c |
    awk '{ print $2 "\t" $1 }' >"$tmp/counts"

# A name is dead when every occurrence is one of its definitions.
awk -F'\t' '
    FNR == NR { count[$1] = $2; next }
    { defs[$1]++; where[$1] = where[$1] " " $2 }
    END { for (n in defs) if (count[n] <= defs[n]) print n "\t" where[n] }
' "$tmp/counts" "$tmp/defs" | sort >"$tmp/dead"

status=0
if grep -vE '^[[:space:]]*(#|$)' "$allow" | grep -vE '^[A-Za-z_][A-Za-z0-9_]*: [^[:space:]]' >&2; then
    echo "dead-pub gate: $allow lines must read 'name: reason' (see above)" >&2
    status=1
fi
sed -nE 's/^([A-Za-z_][A-Za-z0-9_]*): .*/\1/p' "$allow" | sort >"$tmp/allowed"

while IFS=$'\t' read -r name where; do
    echo "dead-pub gate: $name has no non-test caller (defined at$where)" >&2
    status=1
done < <(join -t $'\t' -v 1 "$tmp/dead" "$tmp/allowed")
while read -r name; do
    echo "dead-pub gate: $name is in $allow but is not an uncalled pub item; drop the entry" >&2
    status=1
done < <(cut -f1 "$tmp/dead" | join -v 2 - "$tmp/allowed")

[ "$status" -eq 0 ] && echo "dead-pub gate: $(wc -l <"$tmp/defs") pub items, $(wc -l <"$tmp/allowed") allowlisted"
exit "$status"
