#!/usr/bin/env bash
# Builds the snowcat benchmark from source and runs one workload.
#
# Run from the root of a snowcat checkout:
#
#   bash perfbench/run.sh --workload campaign-pct --seed 1 --seconds 15 --trace 0
#
# Every build and run artefact (Go build cache, binary, trace files) stays
# under .bench_build/ in the checkout. The benchmark module replaces the
# snowcat module with the checkout root, so outside a checkout the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

unset GOFLAGS
export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -trimpath -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
