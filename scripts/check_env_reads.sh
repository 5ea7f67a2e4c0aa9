#!/usr/bin/env bash
# Library crates never read the environment.
#
# Configuration is a value passed in at the edge: the facade's
# `symmerge::config` module parses the `SYMMERGE_*` variables for the
# binaries, and every library `Default` is a constant. This check fails
# if an environment read (`env::var`, `env::vars`, `env::var_os`)
# appears in the sources of a library crate. It also fails if the
# figure harnesses' library (`crates/bench/src/lib.rs`) reads the
# environment, calls `config::from_env` or keeps a process-global
# (`OnceLock`, `LazyLock`, `thread_local!`) outside a comment: its
# binaries read the environment once in `main` and pass the result in.
#
# Usage: scripts/check_env_reads.sh   (from the repository root)
set -u

status=0
hits=$(grep -rn 'env::var\|var_os' \
    crates/expr/src crates/solver/src crates/ir/src crates/core/src crates/workloads/src)
if [ -n "$hits" ]; then
    echo "Environment reads in library crates (move them to symmerge::config):"
    echo "$hits"
    status=1
fi
hits=$(grep -n 'config::from_env\|env::var\|var_os\|OnceLock\|LazyLock\|thread_local!' \
    crates/bench/src/lib.rs |
    grep -v '^[0-9]*:[[:space:]]*//')
if [ -n "$hits" ]; then
    echo "Environment reads or process-globals in the figure harnesses' library"
    echo "(read the environment in each binary's main and pass it in):"
    echo "$hits"
    status=1
fi
if [ $status -eq 0 ]; then
    echo "No environment reads in library crates."
fi
exit $status
