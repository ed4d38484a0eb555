#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the bench from source into
# .bench_build/ of the checkout it is run from (the repository root) and
# runs it with the arguments given. Everything Go writes — build cache,
# module cache, temporary files, the pager's swap files — stays inside
# the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off TMPDIR="$build/tmp"
go build -C "$root/bench" -o "$build/rmpbench" .
exec "$build/rmpbench" "$@"
