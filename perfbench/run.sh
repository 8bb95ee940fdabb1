#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run it from the root
# of the repository:
#
#   bash perfbench/run.sh --workload reuse --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (build cache, binary) goes under
# .bench_build/ in the checkout. The build fails, and the script exits
# non-zero, when the repository's sources are not beside perfbench/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
