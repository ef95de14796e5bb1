#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload table1-analytic --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build and run artifact (Go build
# cache and configuration, temporary files, the binary, dictionaries
# written by the serve-routed workload, trace files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly # build from the checkout only, never fetch
export XDG_CONFIG_HOME="$out/config" # go telemetry and env files

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
