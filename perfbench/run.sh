#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload substrate --seed 1 --seconds 8 --trace 0
#   bash perfbench/run.sh steady -runs 10
#
# Everything the build writes stays under .bench_build/ of the
# checkout: the Go build cache, the module cache and the binary.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ not found)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/home" "$out/tmp"

export GOCACHE="$out/cache/build" GOMODCACHE="$out/cache/mod" GOPATH="$out/cache/gopath"
export GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
# The go command keeps its own settings and telemetry under the home
# directory; point it into the checkout too.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
