#!/usr/bin/env bash
# Builds the served-path benchmark from this checkout's sources and runs it.
# Every build artefact (binary, Go build cache, temp files) stays under
# .bench_build/ in the checkout root, so the run writes nowhere else.
#
#   bash perfbench/run.sh --workload fleet-fullgraph --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
  GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
