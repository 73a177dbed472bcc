#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload mc-core --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the Go
# command's telemetry counters, the binary) stays under .bench_build/ in
# the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
