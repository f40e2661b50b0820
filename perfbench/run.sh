#!/usr/bin/env bash
# Builds the benchmark harness and cmd/cbsd from source into .bench_build
# and runs one workload. Run from the root of a cbs checkout:
#
#   bash perfbench/run.sh --workload al-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build: the Go
# build cache, the binaries, per-run journals and job logs (removed when
# the run ends) and, with --trace 1, the span trace.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/cbsd ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a cbs checkout (go.mod, cmd/cbsd and perfbench/ are needed)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
# Keep the go command's temporary files and its own state (telemetry
# counters) inside the checkout too.
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"

go build -o "$out/cbsd" ./cmd/cbsd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -cbsd "$out/cbsd" -dir "$out" "$@"
