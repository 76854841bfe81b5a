#!/usr/bin/env bash
# Dead-pub gate: a public item needs a caller, and a `pub` function or
# constant a caller outside its crate. Two rules over the non-test source
# (the lines before a file's first `#[cfg(test)]`, the cut scripts/loc.sh
# makes) under crates/*/src, benchmark/src and examples:
#   1. every `pub fn` and `pub struct|enum|trait|type|const|static` name
#      must occur in that text somewhere other than its definition;
#   2. every `pub fn|const|static` name defined under crates/<c>/src must
#      occur in some file outside crates/<c>/src: another crate's source
#      (its tests included), a `tests/` directory (the crate's own too, as
#      an integration test needs `pub`), benchmark/src or examples.
# Neither rule counts a `pub use` re-export line, a comment or the words
# of a string or char literal. `pub(crate)` items and the types of rule 2
# are left to rustc: under `cargo clippy -- -D warnings` its `dead_code`
# lint resolves every use of a crate-visible item exactly, and a type must
# stay `pub` while a public signature names it (`private_interfaces`).
# The rules match names, not paths, so they share one blind spot: a name
# that also occurs as a variable, a field or another item (`new`, `stats`,
# `merge`) counts as used, and a dead or crate-local item of that name
# passes. A name kept on purpose goes in scripts/dead_pub.allow as
# `name: reason`; an entry that neither rule flags (its name is used
# again, or gone) fails too, so the list cannot go stale. Run from
# anywhere; exits 1 naming each name.
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."

allow=scripts/dead_pub.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

shopt -s nullglob
roots=(crates/*/src crates/*/tests)
for dir in tests benchmark/src examples; do
    [ -d "$dir" ] && roots+=("$dir")
done

# Every line as `file:line<TAB>part<TAB>text`, part `c` for non-test code
# and `t` for test code (from a file's first `#[cfg(test)]` on, and every
# file under a tests/ directory), without comment lines, `// ...`
# comments, `pub use` items (which may span lines) or the contents of
# string and char literals: a name in a message is no caller. `scrub`
# blanks literals (`"..."` -> `""`, raw and byte strings too; a string
# left open carries to the next line) but for `format!` captures
# (`{NAME}`, `{NAME:>4}`; not `{{escaped}}`), which are uses, and cuts a
# `//` outside them.
find "${roots[@]}" -name '*.rs' -print0 | sort -z |
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
        FNR == 1 { part = FILENAME ~ /(^|\/)tests\// ? "t" : "c"; reexport = 0; term = "" }
        /#\[cfg\(test\)\]/ { part = "t" }
        term == "" && reexport { if (/;/) reexport = 0; next }
        term == "" && /^[[:space:]]*pub(\([a-z]+\))? use / { if (!/;/) reexport = 1; next }
        term == "" && /^[[:space:]]*\/\// { next }
        { print FILENAME ":" FNR "\t" part "\t" scrub($0) }
    ' >"$tmp/all"
awk -F'\t' '$2 == "c" { print $1 "\t" $3 }' "$tmp/all" >"$tmp/code"

# Rule 1. Definitions as `name<TAB>file:line`; how often each identifier
# occurs in the non-test code, definitions included; a name is dead when
# every occurrence is one of its definitions.
sed -nE 's/^([^\t]*)\t[[:space:]]*pub ((const|unsafe) )*fn ([A-Za-z_][A-Za-z0-9_]*).*/\4\t\1/p;
         s/^([^\t]*)\t[[:space:]]*pub (struct|enum|trait|type|const|static) ([A-Za-z_][A-Za-z0-9_]*).*/\3\t\1/p' \
    "$tmp/code" | sort >"$tmp/defs"
cut -f2- "$tmp/code" | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c |
    awk '{ print $2 "\t" $1 }' >"$tmp/counts"
awk -F'\t' '
    FNR == NR { count[$1] = $2; next }
    { defs[$1]++; where[$1] = where[$1] " " $2 }
    END { for (n in defs) if (count[n] <= defs[n]) print n "\t" where[n] }
' "$tmp/counts" "$tmp/defs" | sort >"$tmp/dead"

# Rule 2. Each identifier with the crate whose src/ it occurs in (`-`
# outside every crate's src/), as distinct `name<TAB>home` pairs; a `pub
# fn|const|static` of crate c is local when every home of its name is c.
awk -F'\t' '{
    home = "-"
    if ($1 ~ /^crates\/[^\/]+\/src\//) { split($1, p, "/"); home = p[2] }
    s = $3
    while (match(s, /[A-Za-z_][A-Za-z0-9_]*/)) {
        print substr(s, RSTART, RLENGTH) "\t" home; s = substr(s, RSTART + RLENGTH)
    }
}' "$tmp/all" | sort -u >"$tmp/homes"
sed -nE 's/^(crates\/([^/]+)\/src\/[^\t]*)\t[[:space:]]*pub ((const|unsafe) )*fn ([A-Za-z_][A-Za-z0-9_]*).*/\5\t\2\t\1/p;
         s/^(crates\/([^/]+)\/src\/[^\t]*)\t[[:space:]]*pub (const|static) ([A-Za-z_][A-Za-z0-9_]*).*/\4\t\2\t\1/p' \
    "$tmp/code" >"$tmp/defs2"
awk -F'\t' '
    FNR == NR { homes[$1] = homes[$1] " " $2; next }
    {
        n = split(homes[$1], h, " ")
        for (i = 1; i <= n; i++) if (h[i] != $2) next
        key = $1 "\t" $2; if (!(key in where)) order[++k] = key; where[key] = where[key] " " $3
    }
    END { for (i = 1; i <= k; i++) print order[i] "\t" where[order[i]] }
' "$tmp/homes" "$tmp/defs2" | sort >"$tmp/local"

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
while IFS=$'\t' read -r name crate where; do
    echo "dead-pub gate: $name is pub but nothing outside crates/$crate/src names it (defined at$where); make it pub(crate) or private" >&2
    status=1
done < <(join -t $'\t' -v 1 "$tmp/local" "$tmp/allowed")
while read -r name; do
    echo "dead-pub gate: $name is in $allow but is neither uncalled nor local to its crate; drop the entry" >&2
    status=1
done < <(cut -f1 "$tmp/dead" "$tmp/local" | sort -u | join -v 2 - "$tmp/allowed")

[ "$status" -eq 0 ] && echo "dead-pub gate: $(wc -l <"$tmp/defs") pub items, $(wc -l <"$tmp/allowed") allowlisted"
exit "$status"
