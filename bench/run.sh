#!/bin/sh
# Builds xmem-perf from source and runs it with the given arguments, e.g.
#
#   sh bench/run.sh --workload tiled --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The binary, the Go build cache and the Go
# command's own state live in .bench_build/ under the current directory.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out"
GOCACHE="$out/go-build" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= \
	go -C bench build -o "$out/xmem-perf" ./xmem-perf
exec "$out/xmem-perf" "$@"
