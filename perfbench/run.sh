#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of
# the repository:
#
#   bash perfbench/run.sh --workload table7 --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files, the Go tool's own config and
# telemetry files (XDG_CONFIG_HOME) and the binary stay under
# .bench_build in the current directory.
set -euo pipefail
if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d internal ]]; then
	echo "perfbench: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
