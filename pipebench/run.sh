#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout it sits in and runs it
# from the checkout root, passing every argument through:
#
#   bash pipebench/run.sh --workload gt-ingest --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and every temporary file (WAL directories)
# stay under .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" TMPDIR="$out/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

(cd "$(dirname "$0")" && go build -o "$out/pipebench" .)
exec "$out/pipebench" "$@"
