#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given arguments, e.g.
#
#   bash vnnbench/run.sh --workload infer-warm --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache, the go command's own
# configuration and telemetry, and every output stay inside .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-path" "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/vnnbench" && go build -o "$out/vnnbench" .)
exec "$out/vnnbench" "$@"
