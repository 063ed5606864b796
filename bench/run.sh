#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ under the current directory (the
# root of a checkout) and runs it there, so the Go build cache, the binary,
# traces and the farms' data directories all stay inside the checkout.
set -euo pipefail
root=$PWD
work=$root/.bench_build
mkdir -p "$work/tmp"
export GOCACHE=$work/go-cache GOMODCACHE=$work/go-mod GOTMPDIR=$work/tmp GOFLAGS=-buildvcs=false
(cd "$(dirname "${BASH_SOURCE[0]}")" && go build -o "$work/dedupbench" .)
exec "$work/dedupbench" -workdir "$work" "$@"
