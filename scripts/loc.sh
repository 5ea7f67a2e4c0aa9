#!/usr/bin/env bash
# Prints the non-test lines of code of each crate, then the total.
#
# A file's non-test lines are the lines above its first `#[cfg(test)]`
# (all of them when it has none), blank lines and comments included. The
# crates are `crates/*/src` and the facade crate's `src/`; every `.rs`
# file below each is counted.
#
# Usage: scripts/loc.sh [repository root]   (default: the current directory)
set -eu

root=${1:-.}
total=0
for dir in "$root"/crates/*/src "$root"/src; do
    [ -d "$dir" ] || continue
    n=0
    while IFS= read -r -d '' f; do
        lines=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        n=$((n + lines))
    done < <(find "$dir" -name '*.rs' -print0)
    printf '%-24s %6d\n' "${dir#"$root"/}" "$n"
    total=$((total + n))
done
printf '%-24s %6d\n' total "$total"
