#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# on. Run it from anywhere; build outputs, the Go build cache and trace
# files go to .bench_build/ at the repository root.
#
#   bash perfbench/run.sh --workload node --seed 1 --seconds 30 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
