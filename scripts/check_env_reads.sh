#!/usr/bin/env bash
# Library crates never read the environment.
#
# Configuration is a value passed in at the edge: the facade's
# `symmerge::config` module parses the `SYMMERGE_*` variables for the
# binaries, and every library `Default` is a constant. This check fails
# if an environment read (`env::var`, `env::vars`, `env::var_os`)
# appears in the sources of a library crate.
#
# Usage: scripts/check_env_reads.sh   (from the repository root)
set -u

hits=$(grep -rn 'env::var\|var_os' \
    crates/expr/src crates/solver/src crates/ir/src crates/core/src crates/workloads/src)
if [ -n "$hits" ]; then
    echo "Environment reads in library crates (move them to symmerge::config):"
    echo "$hits"
    exit 1
fi
echo "No environment reads in library crates."
