#!/usr/bin/env bash
# Runs one perfbench workload from the root of a crsky checkout, e.g.
#
#   bash perfbench/run.sh --workload query-20k --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and every run directory stay under
# .bench_build/ in the checkout. The benchmark is its own Go module
# (perfbench/go.mod) that replaces the crsky module with the checkout.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/crskyd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a crsky checkout (go.mod, cmd/crskyd and perfbench/ must exist)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
exec go run -C perfbench . -root "$root" "$@"
