#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; arguments
# pass through to the binary. Run from anywhere:
#
#   bash perfbench/run.sh --workload codesign-default --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) stays under
# .bench_build at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

(
	cd "$root/perfbench"
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
		GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
	go build -o "$out/perfbench" .
) >&2

exec "$out/perfbench" "$@"
