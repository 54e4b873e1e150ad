#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#	bash benchmark/run.sh --workload agent_clear --seed 7 --seconds 10 --trace 0
#
# The benchmark is a Go module of its own (benchmark/go.mod) that imports the
# repository's packages through a replace directive, so the tree around it
# must be the repository. The binary and the toolchain's caches go to
# .bench_build at the root of the checkout: nothing is written outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# The go command keeps its env file and telemetry counters under the user's
# configuration directory.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
