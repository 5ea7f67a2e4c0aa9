#!/usr/bin/env bash
# Prints the non-test lines of each crate in two columns, then the totals:
# all lines, and code lines.
#
# A file's non-test lines are the lines above its first `#[cfg(test)]`
# (all of them when it has none). The first column counts all of them,
# blank lines and comments included; the second counts only code: the
# non-blank lines that are not `//` comments (doc comments included). The
# crates are `crates/*/src` and the facade crate's `src/`; every `.rs`
# file below each is counted.
#
# Usage: scripts/loc.sh [repository root]   (default: the current directory)
set -eu

root=${1:-.}
total=0
total_code=0
for dir in "$root"/crates/*/src "$root"/src; do
    [ -d "$dir" ] || continue
    n=0
    code=0
    while IFS= read -r -d '' f; do
        read -r lines code_lines < <(awk '
            /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            { n++ }
            !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { c++ }
            END { print n + 0, c + 0 }' "$f")
        n=$((n + lines))
        code=$((code + code_lines))
    done < <(find "$dir" -name '*.rs' -print0)
    printf '%-24s %6d %6d\n' "${dir#"$root"/}" "$n" "$code"
    total=$((total + n))
    total_code=$((total_code + code))
done
printf '%-24s %6d %6d\n' total "$total" "$total_code"
