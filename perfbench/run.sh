#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload qosd-open --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiled packages, the binary, traced-mode
# spans) goes under $CARGO_TARGET_DIR, default .bench_build, in the current
# directory. The toolchain's caches and config are pointed there too, so a
# run writes nothing outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --trace-dir "$out/trace" "$@"
