#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload paper|scale|serve --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
# The go command keeps telemetry and settings under the user's config
# directory; point it inside the work directory too.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
