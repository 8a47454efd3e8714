#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source
# inside the checkout, then run it with the driver's arguments. Run from
# the repository root. Everything the toolchain writes — build cache,
# GOPATH, and its configuration and telemetry directory — is pointed into
# .bench_build/, so nothing is written outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
