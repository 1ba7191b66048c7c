#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash benchmark/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the daemons' state all stay under
# .bench_build/ at the root of the checkout. Without the repository's own
# sources next to benchmark/ the build fails and nothing is measured.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd benchmark && go build -o "$out/bench" .)
exec "$out/bench" "$@"
