#!/usr/bin/env bash
# Builds critbench from this checkout and runs it with the given arguments,
# e.g.  bash critbench/run.sh --workload cold-sim --seed 1 --seconds 35 --trace 0
# Run it from the repository root. Build cache, binary and run data all stay
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOENV=off
(cd "$root/critbench" && go build -o "$build/bin/critbench" .)
exec "$build/bin/critbench" "$@"
