#!/usr/bin/env bash
# Builds perfbench from the checkout and runs it:
#
#   bash perfbench/run.sh --workload build-cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the go command and the
# benchmark write (build cache, binaries, temp dirs, traces) stays in
# .bench_build under the root.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOENV=off GOWORK=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
