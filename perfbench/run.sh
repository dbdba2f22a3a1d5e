#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload churn-beta --seed 1 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, temporary files, the binary) goes
# under .bench_build/ in the current directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -buildvcs=false -trimpath -o "$build/perfbench" .
exec "$build/perfbench" "$@"
