#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the root of the checkout, e.g.
#
#   bash perfbench/run.sh --workload stencil --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the go command's own state and the
# traced runs' span files stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # go env file and telemetry counters
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
mkdir -p "$out"
(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --spans "$out/spans" "$@"
