#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload scan --seed 7 --seconds 10 --trace 0
#
# Run from the repository root. Every file the toolchain and the
# benchmark write lands under .bench_build/, so nothing outside the
# checkout is touched and no network access is attempted.
set -euo pipefail

root=$(pwd)
if [[ ! -f perfbench/go.mod ]]; then
	echo "perfbench/run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config" "$build/bin"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -dir "$build" "$@"
