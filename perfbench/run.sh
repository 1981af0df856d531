#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given,
# e.g.  bash perfbench/run.sh -light-rps 320 -heavy-rps 640 --workload fit --seed 1 --seconds 30 --trace 0
# Run it from the repository root.  Everything the build and the run write
# (Go build cache, binary, traced-run artifacts) lands under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
# Keep every file the Go tool writes (build cache, temporaries, telemetry,
# module cache) inside the checkout, and never reach for the network.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$build/perfbench" -commit "$commit" -out "$build/out" "$@"
