#!/usr/bin/env bash
# Builds uopsbench from source and runs it with the given arguments, from the
# root of a repository checkout:
#
#   bash cmd/uopsbench/run.sh --workload isa-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build: the Go build cache, the go command's own config and
# telemetry files, the binary and the benchmark's scratch stores. Outside a
# full checkout (no repository go.mod two levels up) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=

(cd "$here" && go build -o "$build/uopsbench" .)
cd "$root"
exec "$build/uopsbench" "$@"
