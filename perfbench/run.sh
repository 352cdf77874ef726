#!/usr/bin/env bash
# Builds the HeroServe benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload chatbot-flood --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. The build, its Go caches and the
# traced run's span log all stay under $CARGO_TARGET_DIR (default
# .bench_build) in that root; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/home" "$build/tmp"

export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --spans-dir "$build/spans" "$@"
