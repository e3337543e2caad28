#!/usr/bin/env bash
# Builds the benchmark harness and the kcore-server binary from the source
# tree around this script, then runs the harness. Run it from the root of a
# kcore checkout:
#
#   bash perfbench/run.sh --workload lib_sliding --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind goes to .bench_build/ in
# the checkout (Go build cache included), so nothing is written outside it.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/cmd/kcore-server/main.go" ] || [ ! -f "$here/go.mod" ]; then
	echo "perfbench: run from the root of a kcore checkout (go.mod and cmd/kcore-server not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/kcore-server" kcore/cmd/kcore-server)
exec "$build/bin/perfbench" -server "$build/bin/kcore-server" -workdir "$build" "$@"
