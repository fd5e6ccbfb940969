#!/usr/bin/env bash
# Runs the end-to-end benchmark from the root of a checkout:
#
#   bash e2ebench/run.sh --workload fmo-serve --seed 1 --seconds 25 --trace 0
#
# Every build product, the Go build cache and the toolchain's own state are
# kept under .bench_build in the checkout, and nothing is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
cd "$root/e2ebench"
exec go run . -root "$root" "$@"
