#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload paper-fattree-websearch --seed 1 --seconds 30 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build/ in the current directory.
set -euo pipefail
out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "../$out/perfbench" .)
exec "$out/perfbench" "$@"
