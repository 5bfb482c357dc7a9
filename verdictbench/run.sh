#!/usr/bin/env bash
# Builds the verdict benchmark from source in this checkout, then runs it
# with the given arguments:
#
#   bash verdictbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the root of the checkout. Everything the build and the runs
# leave behind (Go build cache, binary, span files) goes under
# .bench_build/ in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd verdictbench && go build -o "$build/verdictbench" .)
exec "$build/verdictbench" "$@"
