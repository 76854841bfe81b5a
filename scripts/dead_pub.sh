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

# Non-test code as `file:line<TAB>text`, without comment lines, `// ...`
# comments, `pub use` items (which may span lines) or the contents of
# string and char literals: a name in a message is no caller. `scrub`
# blanks literals (`"..."` -> `""`, raw and byte strings too; a string
# left open carries to the next line) but for `format!` captures
# (`{NAME}`, `{NAME:>4}`; not `{{escaped}}`), which are uses, and cuts a
# `//` outside them.
find crates/*/src benchmark/src examples -name '*.rs' -print0 | sort -z |
    xargs -0 awk '
        function scrub(s,    out, i, n, c) {
            out = ""; n = length(s)
            for (i = 1; i <= n;) {
                c = substr(s, i, 1)
                if (term != "") {
                    if (!raw && c == "\\") { i += 2; continue }
                    if (substr(s, i, 2) == "{{") { i += 2; continue }
                    if (match(substr(s, i), /^\{[A-Za-z_][A-Za-z0-9_]*[}:]/)) {
                        out = out substr(s, i + 1, RLENGTH - 2) " "; i += RLENGTH; continue
                    }
                    if (substr(s, i, length(term)) == term) {
                        out = out term; i += length(term); term = ""
                    } else i++
                    continue
                }
                if (substr(s, i, 2) == "//") break
                if (c == "\"") { term = "\""; raw = 0; out = out c; i++; continue }
                if (c ~ /[br]/ && substr(s, i - 1, 1) !~ /[A-Za-z0-9_]/ &&
                    match(substr(s, i), /^b?r#*"/)) {
                    term = substr(s, i, RLENGTH); gsub(/[^#]/, "", term)
                    term = "\"" term; raw = 1; out = out "\""; i += RLENGTH; continue
                }
                if (c == "\047" && match(substr(s, i), /^\047(\\[^\047]+|[^\\\047])\047/)) {
                    out = out "\047\047"; i += RLENGTH; continue
                }
                out = out c; i++
            }
            return out
        }
        FNR == 1 { skip = 0; reexport = 0; term = "" }
        /#\[cfg\(test\)\]/ { skip = 1 }
        skip { next }
        term == "" && reexport { if (/;/) reexport = 0; next }
        term == "" && /^[[:space:]]*pub(\([a-z]+\))? use / { if (!/;/) reexport = 1; next }
        term == "" && /^[[:space:]]*\/\// { next }
        { print FILENAME ":" FNR "\t" scrub($0) }
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
