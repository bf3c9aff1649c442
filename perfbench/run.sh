#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload figure8-warm --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (binaries, Go build cache, Go config)
# stays under .bench_build in the current directory. A binary is named
# after a hash of every Go source and module file, so an unchanged tree
# reuses it without invoking the toolchain.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off

key=$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod -o -name go.sum \) -print0 |
	LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)
bin="$build/perfbench-$key"
if [ ! -x "$bin" ]; then
	go -C perfbench build -o "$bin.$$.tmp" .
	mv "$bin.$$.tmp" "$bin"
fi
exec "$bin" "$@"
