#!/usr/bin/env bash
# Builds the live-runtime benchmark from source and runs it.
#
#   bash livebench/run.sh --workload kv-local --seed 1 --seconds 40 --trace 0
#   bash livebench/run.sh compare base.jsonl change.jsonl
#
# Run from the repository root. The build cache and binary live under
# .bench_build/ in the current directory, so nothing is written outside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C "$root/livebench" build -buildvcs=false -o "$out/livebench" .
if [ -z "${LIVEBENCH_COMMIT:-}" ] && [ -d "$root/.git" ]; then
	LIVEBENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)
fi
export LIVEBENCH_COMMIT="${LIVEBENCH_COMMIT:-unknown}"
exec "$out/livebench" "$@"
