#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every
# build and scratch file stays under .bench_build/ in the checkout root.
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --compare before.jsonl after.jsonl
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
