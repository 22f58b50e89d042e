#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments.  Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload cold-csr --seed 1 --seconds 30 --trace 0
#
# Everything it writes stays under .bench_build/ in that root: the build
# cache, the binary, the socket workers' temporary directories and the
# traced runs' spans.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=.bench_build
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" GOTMPDIR="$PWD/$out/tmp"
export GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
bin="$PWD/$out/perfbench"
(cd "$here" && go build -o "$bin" .)

# A relative TMPDIR keeps the unix-domain socket paths of the rank
# fabric short wherever the checkout lives.
export TMPDIR="$out/tmp"
exec "$out/perfbench" "$@"
