#!/usr/bin/env bash
# Builds the LoopPoint benchmark program from this checkout's sources and
# runs it. Run from the repository root:
#
#   bash lpbench/run.sh --workload cg-analyze --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under .bench_build (or
# $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp" "$build/home"

# Keep every toolchain cache, config and temporary file inside the build
# directory, and never reach for the network.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTELEMETRY=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly
if [ -z "${LPBENCH_COMMIT:-}" ]; then
	LPBENCH_COMMIT=unknown
	if [ -d "$root/.git" ]; then
		LPBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	fi
	export LPBENCH_COMMIT
fi

(cd "$here" && HOME="$build/home" XDG_CONFIG_HOME="$build/home" go build -o "$build/lpbench" .) >&2
exec "$build/lpbench" --out "$build/lpbench-out" "$@"
