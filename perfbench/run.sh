#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one
# workload. Usage, from the repository root:
#
#   bash perfbench/run.sh --workload flow-congested-est --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, scratch
# inputs, serving state, determinism records) lives under .bench_build/ in
# the repository root.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The go command's config and telemetry files live under XDG_CONFIG_HOME.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -trimpath -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
