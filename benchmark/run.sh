#!/usr/bin/env bash
# One benchmark invocation: build fem2d and the benchmark from source into
# .bench_build/ at the checkout root (build time is in no metric), then
# run the benchmark against the built daemon.  Everything the build and
# the run write stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/fem2d" repro/cmd/fem2d
go build -o "$build/fem2bench" .
exec "$build/fem2bench" -fem2d "$build/fem2d" -out "$here/out" "$@"
