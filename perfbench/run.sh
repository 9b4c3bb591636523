#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload kv-txn --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady --runs 10
#
# Build outputs and the Go build cache stay inside the checkout, under
# .bench_build/, so a run reads and writes nothing outside it.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
