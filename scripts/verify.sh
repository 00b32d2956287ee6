#!/bin/sh
# verify.sh — the full local gate: static checks, build, the whole test
# suite (which includes the zero-alloc pins), the race detector over the
# packages that use goroutines (the parallel experiment runner and the
# simnet structures it drives, the sharded executor's ownership, steal
# and stop tests among them), and a chaos smoke run (small faulted
# scenario at a fixed seed), plus determinism smokes: two same-seed
# -metrics dumps and two same-seed -trace Perfetto exports must each be
# byte-identical, the trace export must be structurally valid
# trace-event JSON, a sharded mcload -scale run (-shards 4) must be
# byte-identical to the serial (-shards 1) run at the same seed, and the
# replicated data tier storm (mcload -sync) must dump the same totals and
# state digest serial vs sharded. A bench gate checks the timing wheel's
# speedup over the reference heap on medians of five runs. The
# segment-level TCP adds its own gates: the mtcp package under the race
# detector and same-seed byte-identical mcsim output per congestion
# control algorithm (-cc reno and -cc cubic), serial and -shards 4. The
# telemetry timeline adds the observability gates: the OpenMetrics
# exposition linted by scripts/omlint, and same-seed -timeline exports
# byte-identical run to run (mcsim -faults with the SLO engine on) and
# across worker-lane counts (mcload -scale, -shards 1 vs 4). A last smoke
# covers the end-of-run path the three commands share: a full-fidelity
# mcload run with -trace, -timeline and -slo must be byte-identical run
# to run on stdout, the Perfetto file and the timeline.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go build ./...
go test ./...
go test -race ./internal/experiments ./internal/simnet ./internal/faults/... \
	./internal/metrics/... ./internal/core/... ./internal/trace/... \
	./internal/database/... ./internal/mobiledb/... ./internal/repl/... \
	./internal/workload/... ./internal/obs/...
go run ./cmd/mcsim -faults -clients 3 -rounds 3 -seed 1 >/dev/null
go run ./cmd/mcsim -clients 2 -rounds 2 -seed 1 -metrics >/tmp/mc-metrics-a.txt
go run ./cmd/mcsim -clients 2 -rounds 2 -seed 1 -metrics >/tmp/mc-metrics-b.txt
cmp /tmp/mc-metrics-a.txt /tmp/mc-metrics-b.txt
rm -f /tmp/mc-metrics-a.txt /tmp/mc-metrics-b.txt
go run ./cmd/mcsim -faults -clients 3 -rounds 3 -seed 1 -trace /tmp/mc-trace-a.json >/dev/null
go run ./cmd/mcsim -faults -clients 3 -rounds 3 -seed 1 -trace /tmp/mc-trace-b.json >/dev/null
cmp /tmp/mc-trace-a.json /tmp/mc-trace-b.json
if command -v jq >/dev/null 2>&1; then
	jq -e '.traceEvents | length > 0' /tmp/mc-trace-a.json >/dev/null
else
	go run ./scripts/tracecheck /tmp/mc-trace-a.json
fi
rm -f /tmp/mc-trace-a.json /tmp/mc-trace-b.json
# Scheduler bench gate: the timing wheel must hold its >=2x advantage
# over the reference heap with a million live timers. The ratio compares
# two benchmarks from the same run, on medians of five, so it holds on
# any host.
go test -run '^$' -bench 'BenchmarkTimerChurn1M' -count 5 \
	-benchtime 200ms ./internal/simnet >/tmp/mc-bench-gate.txt
go run ./scripts/benchgate -baseline scripts/bench_baseline.json /tmp/mc-bench-gate.txt
rm -f /tmp/mc-bench-gate.txt
# Sharded execution: a sharded run must be byte-identical to a serial
# run of the same seed on the mcload -scale surface (wall-clock goes to
# stderr, so stdout is directly comparable).
go run ./cmd/mcload -scale -seed 7 -gateways 3 -cells 2 -stations 20 \
	-duration 5s -think 300ms -metrics -shards 1 >/tmp/mc-scale-a.txt 2>/dev/null
go run ./cmd/mcload -scale -seed 7 -gateways 3 -cells 2 -stations 20 \
	-duration 5s -think 300ms -metrics -shards 4 >/tmp/mc-scale-b.txt 2>/dev/null
cmp /tmp/mc-scale-a.txt /tmp/mc-scale-b.txt
rm -f /tmp/mc-scale-a.txt /tmp/mc-scale-b.txt
# The replicated data tier under the chaos plan: the resilient run must
# report zero lost updates and a converged tier, and stdout (totals +
# state digest) must be byte-identical serial vs sharded.
go run ./cmd/mcload -sync -seed 7 -gateways 2 -cells 2 -devices 100 \
	-duration 30s -shards 1 >/tmp/mc-sync-a.txt 2>/dev/null
go run ./cmd/mcload -sync -seed 7 -gateways 2 -cells 2 -devices 100 \
	-duration 30s -shards 4 >/tmp/mc-sync-b.txt 2>/dev/null
cmp /tmp/mc-sync-a.txt /tmp/mc-sync-b.txt
grep -q '^lost=0 ' /tmp/mc-sync-a.txt
grep -q '^converged: yes' /tmp/mc-sync-a.txt
rm -f /tmp/mc-sync-a.txt /tmp/mc-sync-b.txt
# Segment-level TCP: race-clean state machine and congestion control
# (the mtcp suite exercises both algorithms, simultaneous open/close,
# TIME_WAIT reuse and the wraparound transfer).
go test -race ./internal/mtcp
# Congestion control determinism: per algorithm, two same-seed mcsim
# runs must be byte-identical, and a -shards 4 run must reproduce the
# serial bytes — for cubic as well as reno.
for alg in reno cubic; do
	go run ./cmd/mcsim -clients 2 -rounds 2 -seed 3 -metrics -cc "$alg" >/tmp/mc-cc-a.txt 2>/dev/null
	go run ./cmd/mcsim -clients 2 -rounds 2 -seed 3 -metrics -cc "$alg" >/tmp/mc-cc-b.txt 2>/dev/null
	cmp /tmp/mc-cc-a.txt /tmp/mc-cc-b.txt
	go run ./cmd/mcsim -clients 2 -rounds 2 -seed 3 -metrics -cc "$alg" -shards 4 >/tmp/mc-cc-c.txt 2>/dev/null
	cmp /tmp/mc-cc-a.txt /tmp/mc-cc-c.txt
	rm -f /tmp/mc-cc-a.txt /tmp/mc-cc-b.txt /tmp/mc-cc-c.txt
done
# Observability: the OpenMetrics exposition must pass its own lint (the
# report preamble is stripped; the exposition starts at the first TYPE
# line), and timeline exports must be deterministic — same-seed faulted
# runs with the SLO engine byte-identical, and the sharded scale tier's
# timeline byte-identical at 1 and 4 worker lanes.
go run ./cmd/mcsim -clients 2 -rounds 2 -seed 1 -metrics -metrics-format openmetrics 2>/dev/null \
	| sed -n '/^# TYPE /,$p' >/tmp/mc-om.txt
go run ./scripts/omlint /tmp/mc-om.txt
rm -f /tmp/mc-om.txt
go run ./cmd/mcsim -faults -clients 3 -rounds 3 -seed 1 \
	-timeline /tmp/mc-tl-a.json -slo default >/tmp/mc-tl-out-a.txt 2>/dev/null
go run ./cmd/mcsim -faults -clients 3 -rounds 3 -seed 1 \
	-timeline /tmp/mc-tl-b.json -slo default >/tmp/mc-tl-out-b.txt 2>/dev/null
cmp /tmp/mc-tl-a.json /tmp/mc-tl-b.json
cmp /tmp/mc-tl-out-a.txt /tmp/mc-tl-out-b.txt
rm -f /tmp/mc-tl-a.json /tmp/mc-tl-b.json /tmp/mc-tl-out-a.txt /tmp/mc-tl-out-b.txt
go run ./cmd/mcload -scale -seed 7 -gateways 3 -cells 2 -stations 20 \
	-duration 5s -think 300ms -shards 1 -timeline /tmp/mc-tl-s1.json >/dev/null 2>&1
go run ./cmd/mcload -scale -seed 7 -gateways 3 -cells 2 -stations 20 \
	-duration 5s -think 300ms -shards 4 -timeline /tmp/mc-tl-s4.json >/dev/null 2>&1
cmp /tmp/mc-tl-s1.json /tmp/mc-tl-s4.json
rm -f /tmp/mc-tl-s1.json /tmp/mc-tl-s4.json
# The two algorithms must actually differ on the wire: full-fidelity
# mcload runs with -cc reno vs -cc cubic at the same seed are each
# internally reproducible.
go run ./cmd/mcload -users 3 -duration 20s -seed 5 -cc reno >/tmp/mc-ccl-a.txt 2>/dev/null
go run ./cmd/mcload -users 3 -duration 20s -seed 5 -cc reno >/tmp/mc-ccl-b.txt 2>/dev/null
cmp /tmp/mc-ccl-a.txt /tmp/mc-ccl-b.txt
go run ./cmd/mcload -users 3 -duration 20s -seed 5 -cc cubic >/tmp/mc-ccl-c.txt 2>/dev/null
go run ./cmd/mcload -users 3 -duration 20s -seed 5 -cc cubic >/tmp/mc-ccl-d.txt 2>/dev/null
cmp /tmp/mc-ccl-c.txt /tmp/mc-ccl-d.txt
rm -f /tmp/mc-ccl-a.txt /tmp/mc-ccl-b.txt /tmp/mc-ccl-c.txt /tmp/mc-ccl-d.txt
# The shared end-of-run path (SLO verdicts, timeline file, Perfetto
# export and critical-path table) on the full-fidelity tier: two
# same-seed runs must write byte-identical stdout, trace and timeline.
# Both runs use the same file names, since stdout echoes the trace path.
for run in a b; do
	go run ./cmd/mcload -users 3 -duration 20s -seed 5 -trace /tmp/mc-ff-trace.json \
		-timeline /tmp/mc-ff-tl.json -slo default >/tmp/mc-ff-out-$run.txt 2>/dev/null
	mv /tmp/mc-ff-trace.json /tmp/mc-ff-trace-$run.json
	mv /tmp/mc-ff-tl.json /tmp/mc-ff-tl-$run.json
done
grep -q '^SLO verdicts' /tmp/mc-ff-out-a.txt
grep -q '^trace: ' /tmp/mc-ff-out-a.txt
cmp /tmp/mc-ff-out-a.txt /tmp/mc-ff-out-b.txt
cmp /tmp/mc-ff-trace-a.json /tmp/mc-ff-trace-b.json
cmp /tmp/mc-ff-tl-a.json /tmp/mc-ff-tl-b.json
rm -f /tmp/mc-ff-out-a.txt /tmp/mc-ff-out-b.txt /tmp/mc-ff-trace-a.json \
	/tmp/mc-ff-trace-b.json /tmp/mc-ff-tl-a.json /tmp/mc-ff-tl-b.json
