#!/bin/sh
# bench.sh — run the benchmark suite and record a machine-readable
# trajectory point. Runs every benchmark in simnet, mtcp, experiments,
# obs and webserver (-benchmem, -count 5 so outliers are visible),
# converts the output to JSON with scripts/benchjson, and writes it to
# the given file (default BENCH.json).
#
#	scripts/bench.sh BENCH_5.json
#
# The raw text stream is echoed to stderr as it arrives, so a long run
# shows progress. BENCH_COUNT overrides -count, BENCH_TIME -benchtime.
#
# BenchmarkShardedSweep contributes the multi-core scaling grid
# (GOMAXPROCS {1,2,4} x worker lanes {1,4,8}); benchjson
# derives speedups_vs_1_lane from its events_per_sec entries and sets a
# top-level warning when the host reports a single core, so a recorded
# trajectory point is never mistaken for a parallel-speedup measurement
# it cannot be.
set -eu

cd "$(dirname "$0")/.."

out="${1:-BENCH.json}"
count="${BENCH_COUNT:-5}"
benchtime="${BENCH_TIME:-1s}"
commit="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
# A run over uncommitted changes is not a measurement of HEAD.
git diff --quiet HEAD 2>/dev/null || commit="$commit-dirty"

go test -run '^$' -bench . -benchmem -count "$count" -benchtime "$benchtime" \
	-timeout 60m ./internal/simnet ./internal/mtcp ./internal/experiments \
	./internal/obs ./internal/webserver \
	| tee /dev/stderr \
	| go run ./scripts/benchjson -commit "$commit" >"$out"

echo "bench.sh: wrote $out" >&2
