#!/usr/bin/env bash
# Prints the non-test lines of each crate in two columns, then the totals:
# all lines, and code lines. Then the knob counts: the `pub` fields of each
# `*Config` struct and of `Budgets`, the methods of `EngineBuilder`, the
# distinct `SYMMERGE_*` variables `src/config.rs` reads, and the steps of
# the CI workflow.
#
# A file's non-test lines are the lines above its first `#[cfg(test)]`
# (all of them when it has none). The first column counts all of them,
# blank lines and comments included; the second counts only code: the
# non-blank lines that are not `//` comments (doc comments included). The
# crates are `crates/*/src` and the facade crate's `src/`; every `.rs`
# file below each is counted.
#
# A struct's fields are the `pub name:` lines between its `pub struct`
# line and the first `}` at the start of a line. A field is frozen when its
# doc comment starts with "Frozen for `mergebench`": it is kept only
# because the standalone benchmark package names it, and nothing reads it.
# A struct with frozen fields prints their count beside its own, and
# `fields total` counts only the live ones. A variable is read when its
# quoted name appears above the first `#[cfg(test)]` of `src/config.rs`.
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

srcs=()
for dir in "$root"/crates/*/src "$root"/src; do
    [ -d "$dir" ] && srcs+=("$dir")
done
echo
echo knobs
knobs=0
while IFS=: read -r file name; do
    read -r n frozen < <(awk -v name="$name" '
        $0 ~ "^pub struct " name " \\{" { inside = 1; next }
        !inside { next }
        /^}/ { exit }
        /^[[:space:]]*\/\/\// {
            if (!doc) frozen_doc = $0 ~ /^[[:space:]]*\/\/\/ Frozen for `mergebench`/
            doc = 1
            next
        }
        /^[[:space:]]+pub [a-z_0-9]+:/ { n++; if (doc && frozen_doc) f++ }
        { doc = 0 }
        END { print n + 0, f + 0 }' "$file")
    if [ "$frozen" -gt 0 ]; then
        printf '  %-22s %6d (%d frozen)\n' "$name" "$n" "$frozen"
    else
        printf '  %-22s %6d\n' "$name" "$n"
    fi
    knobs=$((knobs + n - frozen))
done < <(grep -roE --include='*.rs' '^pub struct ([A-Za-z]*Config|Budgets) \{' "${srcs[@]}" \
    | sed -E 's/^(.*):pub struct ([A-Za-z]*) \{$/\1:\2/' | sort -t: -k2)
printf '  %-22s %6d\n' "fields total (live)" "$knobs"
builder=$(awk '
    /^impl EngineBuilder \{/ { inside = 1; next }
    inside && /^}/ { exit }
    inside && /^[[:space:]]+(pub(\([a-z]+\))? )?fn / { n++ }
    END { print n + 0 }' "$root"/crates/core/src/engine.rs)
printf '%-24s %6d\n' "EngineBuilder methods" "$builder"
vars=$(awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$root"/src/config.rs \
    | grep -oE '"SYMMERGE_[A-Z0-9_]+"' | sort -u | wc -l)
printf '%-24s %6d\n' "SYMMERGE_* variables" "$vars"
steps=$(grep -cE '^[[:space:]]*- (name|uses|run):' "$root"/.github/workflows/ci.yml)
printf '%-24s %6d\n' "CI steps" "$steps"
