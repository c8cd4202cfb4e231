#!/usr/bin/env bash
# Builds the slxbench benchmark from the checkout's sources and runs it.
# Every argument passes through, e.g.
#   bash slxbench/run.sh --workload dfs-plain --seed 1 --seconds 25 --trace 0
# Build outputs, the Go build cache and the go command's own config and
# telemetry files stay in .bench_build at the root of the checkout; the
# build needs no network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/slxbench" && go build -o "$out/slxbench" .)
exec "$out/slxbench" "$@"
