#!/bin/sh
# verify.sh — the full local gate: static checks (go vet, and a
# dead-code scan that resolves uses by object with go/types and has no
# allowlist: every package-level function, method, type, var and const
# must have a use, and every field of a package-level struct type must
# be written somewhere, by a literal, an assignment, &x.f or a pointer
# method call; a tagged field counts as written; the same scan's counts
# of exported declarations only tests use, of fields only tests write and
# of *Config/*Options fields only their own package writes (a defaults
# literal or zero-value branch posing as a knob) are capped, so code that
# no run reaches and knobs that hold one value cannot grow back), build, the whole test
# suite (which includes the zero-alloc pins), the race detector over the
# packages that use goroutines (the parallel experiment runner and the
# simnet structures it drives, the sharded executor's ownership, steal
# and shard-freeze tests among them), and a chaos smoke run (small faulted
# scenario at a fixed seed), plus determinism smokes: two same-seed
# -metrics dumps and two same-seed -trace Perfetto exports must each be
# byte-identical, the trace export must be structurally valid
# trace-event JSON, a sharded mcload -scale run (-shards 4) must be
# byte-identical to the serial (-shards 1) run at the same seed, and the
# replicated data tier storm (mcload -sync) must dump the same totals,
# state digest and telemetry registry serial vs sharded, and every
# experiment mcbench runs (-exp all) must print the same report serially
# on one lane as on two workers and four lanes, under each congestion
# control algorithm. A bench gate checks, on medians of five
# runs, the timing wheel's speedup over the reference heap, that the
# webserver parser frames messages in linear time and that a syncing
# device's invalidation catch-up does not grow with its backlog, and caps the
# allocs/op of one WAP and one i-mode transaction and of one logged
# database commit; ten-second fuzz smokes run the parser against its
# reference oracle, the WMLC decoder against its re-encoding fixpoint and
# the WAL record decoder against its prefix and fixpoint contracts, and
# 20,000 WAP transactions on one
# station check that sessions do not leak ports. The
# segment-level TCP adds its own gates: the mtcp package under the race
# detector, same-seed byte-identical mcsim output per congestion
# control algorithm (-cc reno and -cc cubic), and mcload output that
# differs between the two algorithms. -shards exists only where a world
# has several shards (mcload -scale and -sync, mcbench), so every
# serial-vs-sharded comparison runs there. The
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
# Dead-code gate plus the test-only and one-value caps: -report prints a
# header line with each count. The caps only go down.
go run ./scripts/deadexports -report >/tmp/mc-dead.txt
max_test_only_decls=45
max_test_only_fields=7
max_self_written_config_fields=4
decls=$(sed -n 's/^\([0-9][0-9]*\) exported declarations only tests use:$/\1/p' /tmp/mc-dead.txt)
fields=$(sed -n 's/^\([0-9][0-9]*\) fields only tests write:$/\1/p' /tmp/mc-dead.txt)
knobs=$(sed -n 's/^\([0-9][0-9]*\) config fields only their own package writes:$/\1/p' /tmp/mc-dead.txt)
rm -f /tmp/mc-dead.txt
if [ -z "$decls" ] || [ -z "$fields" ] || [ -z "$knobs" ]; then
	echo "verify: deadexports -report printed no count header" >&2
	exit 1
fi
if [ "$decls" -gt "$max_test_only_decls" ] || [ "$fields" -gt "$max_test_only_fields" ]; then
	echo "verify: test-only code grew: $decls declarations (cap $max_test_only_decls), $fields fields (cap $max_test_only_fields)" >&2
	exit 1
fi
if [ "$knobs" -gt "$max_self_written_config_fields" ]; then
	echo "verify: $knobs config fields are written only by their own package (cap $max_self_written_config_fields): fold each into a constant" >&2
	exit 1
fi
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
# Bench gate: the timing wheel must hold its >=2x advantage over the
# reference heap with a million live timers, and the webserver parser
# must frame a 4 KiB response in at least 0.01x the time of a 256 KiB
# one (a quadratic parser measures about 0.001x). A device 16 ticks
# behind its cell's invalidation ring must catch up in at least 0.5x the
# time of one 1024 ticks behind (the per-key index measures about 0.9x,
# a scan of the missed ticks about 0.016x). Each ratio compares
# two benchmarks from the same run, on medians of five, so it holds on
# any host. One WAP and one i-mode transaction and one database commit
# logged to a WAL sink must stay under their allocs/op ceilings
# (BenchmarkTxnWAP, BenchmarkTxnIMode, BenchmarkWALCommit), and a WLAN
# and a GPRS frame round trip and a UDP delivery to one of 16,000 bound
# ports must allocate nothing (BenchmarkLANForward, BenchmarkCellFrame,
# BenchmarkUDPDeliver); allocation counts do not depend on the host
# either.
go test -run '^$' -bench 'BenchmarkTimerChurn1M|BenchmarkParserFeed|BenchmarkSyncCatchUp|BenchmarkTxnWAP$|BenchmarkTxnIMode$|BenchmarkWALCommit$|BenchmarkLANForward$|BenchmarkCellFrame$|BenchmarkUDPDeliver$' \
	-count 5 -benchtime 200ms -benchmem ./internal/simnet ./internal/webserver ./internal/core \
	./internal/database ./internal/workload ./internal/wireless ./internal/cellular >/tmp/mc-bench-gate.txt
go run ./scripts/benchgate -baseline scripts/bench_baseline.json /tmp/mc-bench-gate.txt
rm -f /tmp/mc-bench-gate.txt
# Parser fuzz smoke: bounded native fuzzing of the webserver parser
# against its reference oracle, on top of the checked-in seed corpus
# that go test already runs.
go test -run '^$' -fuzz FuzzParser -fuzztime 10s ./internal/webserver
# WMLC decoder fuzz smoke: no panic on arbitrary bytes, and every accepted
# input re-encodes to a fixpoint, on top of the checked-in seed corpus.
go test -run '^$' -fuzz FuzzDecodeWMLC -fuzztime 10s ./internal/markup
# WAL decoder fuzz smoke: crash recovery decodes whatever a torn disk
# image holds. No panic, a valid prefix inside the input that re-reads
# cleanly, only ErrTruncatedWAL as an error, and decoded records that
# re-encode to a fixpoint, on top of the checked-in seed corpus.
go test -run '^$' -fuzz FuzzReadWALPrefix -fuzztime 10s ./internal/database
# WAP state gate: 20,000 back-to-back WAP transactions on one station.
# That is more sessions than a node has ephemeral UDP ports (16,384), so
# a session that bound its own port instead of reusing the station's
# transaction endpoint would exhaust them and panic here.
go test -run '^$' -bench '^BenchmarkTxnWAP$' -benchtime 20000x ./internal/core
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
# report zero lost updates and a converged tier, and stdout (totals,
# state digest and the telemetry registry) must be byte-identical serial
# vs sharded.
go run ./cmd/mcload -sync -seed 7 -gateways 2 -cells 2 -devices 100 \
	-duration 30s -metrics -shards 1 >/tmp/mc-sync-a.txt 2>/dev/null
go run ./cmd/mcload -sync -seed 7 -gateways 2 -cells 2 -devices 100 \
	-duration 30s -metrics -shards 4 >/tmp/mc-sync-b.txt 2>/dev/null
cmp /tmp/mc-sync-a.txt /tmp/mc-sync-b.txt
grep -q '^lost=0 ' /tmp/mc-sync-a.txt
grep -q '^converged: yes' /tmp/mc-sync-a.txt
rm -f /tmp/mc-sync-a.txt /tmp/mc-sync-b.txt
# Every experiment's parallel and shard invariance: mcbench -exp all run
# serially on one lane must be byte-identical to two concurrent
# experiments on four lanes, per congestion control algorithm.
# TestRunnerMatchesSerial compares only Figure 2, Table 4 and the TCP
# variants; this covers every experiment.
for alg in reno cubic; do
	go run ./cmd/mcbench -exp all -seed 1 -cc "$alg" -parallel 1 -shards 1 >/tmp/mc-all-a.txt 2>/dev/null
	go run ./cmd/mcbench -exp all -seed 1 -cc "$alg" -parallel 2 -shards 4 >/tmp/mc-all-b.txt 2>/dev/null
	cmp /tmp/mc-all-a.txt /tmp/mc-all-b.txt
	rm -f /tmp/mc-all-a.txt /tmp/mc-all-b.txt
done
# Segment-level TCP: race-clean state machine and congestion control
# (the mtcp suite exercises both algorithms, simultaneous open/close,
# TIME_WAIT reuse and the wraparound transfer).
go test -race ./internal/mtcp
# Congestion control determinism: per algorithm, two same-seed mcsim
# runs must be byte-identical — for cubic as well as reno.
for alg in reno cubic; do
	go run ./cmd/mcsim -clients 2 -rounds 2 -seed 3 -metrics -cc "$alg" >/tmp/mc-cc-a.txt 2>/dev/null
	go run ./cmd/mcsim -clients 2 -rounds 2 -seed 3 -metrics -cc "$alg" >/tmp/mc-cc-b.txt 2>/dev/null
	cmp /tmp/mc-cc-a.txt /tmp/mc-cc-b.txt
	rm -f /tmp/mc-cc-a.txt /tmp/mc-cc-b.txt
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
# internally reproducible, and reno's output differs from cubic's.
go run ./cmd/mcload -users 3 -duration 20s -seed 5 -cc reno >/tmp/mc-ccl-a.txt 2>/dev/null
go run ./cmd/mcload -users 3 -duration 20s -seed 5 -cc reno >/tmp/mc-ccl-b.txt 2>/dev/null
cmp /tmp/mc-ccl-a.txt /tmp/mc-ccl-b.txt
go run ./cmd/mcload -users 3 -duration 20s -seed 5 -cc cubic >/tmp/mc-ccl-c.txt 2>/dev/null
go run ./cmd/mcload -users 3 -duration 20s -seed 5 -cc cubic >/tmp/mc-ccl-d.txt 2>/dev/null
cmp /tmp/mc-ccl-c.txt /tmp/mc-ccl-d.txt
# A bare "! cmp" would not stop the script: set -e ignores negated
# commands.
if cmp -s /tmp/mc-ccl-a.txt /tmp/mc-ccl-c.txt; then
	echo "verify: -cc reno and -cc cubic produced identical mcload output" >&2
	exit 1
fi
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
