#!/usr/bin/env bash
# Builds the end-to-end benchmark from source into .bench_build/ under
# the current directory (the repository root) and runs it with the
# given arguments, e.g.
#
#   bash e2ebench/run.sh --workload voice_mix --seed 1 --seconds 30 --trace 0
#
# The Go build cache and temporary files stay under .bench_build/ too.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$src" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
