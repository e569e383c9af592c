#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; every
# argument passes through (see main.go). Run it from the repository root:
#
#	bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the run's temp dir all live under
# .bench_build in the current directory; only the installed Go toolchain
# is used and nothing is downloaded.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
