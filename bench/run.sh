#!/usr/bin/env bash
# Builds the daemon under test and the benchmark from the checkout's own
# source, then runs the benchmark with the arguments given. Everything
# built or written stays under the checkout: .bench_build/ (binaries, Go
# build and module caches, the toolchain's temp files and counters, data
# dirs) and bench/out/ (span files).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"

# Without the program's source there is nothing to measure: refuse before
# anything is started.
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ufilterd" ]]; then
	echo "bench/run.sh: $root holds no go.mod and cmd/ufilterd: this benchmark builds the daemon from the checkout's source" >&2
	exit 1
fi

# The first go command under a fresh config dir would otherwise leave a
# detached telemetry sidecar behind; mode "off" starts none.
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off > "$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"

# The daemon is a package of the repository's own module; the benchmark
# is a module of its own in bench/ that imports the repository.
(cd "$root" && go build -o "$build/ufilterd" ./cmd/ufilterd)
(cd "$root/bench" && go build -o "$build/bench" .)

cd "$root"
exec "$build/bench" -ufilterd "$build/ufilterd" -work "$build/work" -spans "$root/bench/out" "$@"
