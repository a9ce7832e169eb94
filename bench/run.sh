#!/usr/bin/env bash
# Build the benchmark from source into .bench_build/ at the root of the
# checkout and run it. Everything the toolchain writes (the build cache
# included) stays inside the checkout. Run from the root of the checkout:
#
#   bash bench/run.sh --workload ring_build --seed 1 --seconds 26 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# The commit goes into every output row's environment stamp; a checkout
# that is not a git repository reports "unknown" unless BENCH_COMMIT is set.
export BENCH_COMMIT="${BENCH_COMMIT:-$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)}"
(cd "$here" && go build -buildvcs=false -o "$out/wowbench" .)
exec "$out/wowbench" "$@"
