#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, from the checkout root. The Go build and module caches,
# the toolchain's config directory and the binary live under .bench_build
# (or $CARGO_TARGET_DIR when set), so nothing is written outside the
# checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
(
	export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
	export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
	cd "$root/bench" && go build -o "$out/mcbench" .
)
cd "$root"
exec "$out/mcbench" "$@"
