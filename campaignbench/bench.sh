#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout's sources and runs it,
# passing every argument through. Run it from the repository root:
#
#   bash campaignbench/bench.sh --workload detect --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write (Go build cache, binary,
# scratch files, traces) stays under .bench_build/ in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C campaignbench build -o "$build/campaignbench.bin" .
exec "$build/campaignbench.bin" --out "$build/campaignbench" "$@"
