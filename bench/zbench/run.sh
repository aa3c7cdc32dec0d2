#!/bin/sh
# Build the zaatar CLI and zbench from source, then run zbench with the
# given arguments from the repository root. Fails (exit non-zero, no
# result line) when the tree does not build.
set -e
cd "$(dirname "$0")/../.."
DUNE_CACHE=disabled dune build --root . bin/zaatar_cli.exe bench/zbench/zbench.exe 1>&2
exec ./_build/default/bench/zbench/zbench.exe "$@"
