#!/usr/bin/env bash
# Builds the harness from the checkout's own sources and runs it. Everything
# the build writes (binary, Go build cache, work directory, the go command's
# telemetry counters) stays under .bench_build/ in the checkout; nothing is
# downloaded. A directory without the repository's go.mod and internal/ is
# not a checkout: the script exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: $PWD holds no go.mod and internal/: not a checkout of the repository" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -buildvcs=false -o "$build/repro-bench" ./bench
exec "$build/repro-bench" -tmp "$build" "$@"
