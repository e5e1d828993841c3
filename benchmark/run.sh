#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it. Everything
# go writes (build cache, temp files, its env file) stays inside the checkout.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload closed_scan --seed 1 --seconds 20 --trace 0
set -euo pipefail
build=$(pwd)/.bench_build
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/mosaic-benchmark" .
# Memory the Go runtime hands back to the OS between phases stays mapped
# (MADV_FREE): taking it again then costs no page faults, which in this kind
# of sandbox are slow and vary from run to run (README.md, "Noise rules").
export GODEBUG=madvdontneed=0
exec "$build/mosaic-benchmark" "$@"
