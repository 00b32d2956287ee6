// Command bench is the repository benchmark: four closed-loop workloads
// built through the public APIs, each run as set-up, warm-up and a timed
// measured window, with correctness checks on the outputs.
//
// Usage (from the repository root):
//
//	bench/run.sh --workload shop-wlan --seed 1 --seconds 20 --trace 0
//	bench/run.sh --seed 1                  # all four workloads
//	bench/run.sh --seed 1 --trace 1 --out DIR
//	bench/run.sh --repeat 10               # medians and IQRs over seeds 1..10
//
// A run repeats whole rounds (build, set-up, warm-up, window, drain,
// verify) until --seconds of host time have passed, at least seedsPerRun
// times, and reports host metrics as medians over rounds. Round i builds
// its world from the i-th of seedsPerRun world seeds derived from --seed,
// cyclically; simulated metrics pool the first seedsPerRun rounds, and
// every later round must reproduce its seed's first round exactly.
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it adds
// one traced round per world seed (span sampling plus a CPU profile over
// the window) and prints the per-layer metrics instead. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. Any failed check makes the exit status non-zero.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mcommerce/internal/trace"
)

// seedsPerRun is the number of world seeds a run cycles through, and so
// the fewest rounds it measures. Pooling several short windows of
// different seeds steadies the simulated percentiles, and many short
// rounds let the host medians shrug off bursts of interference.
const seedsPerRun = 4

// worldSeed is the seed of round i's world in a run at seed.
func worldSeed(seed int64, i int) int64 { return seed*seedsPerRun + int64(i%seedsPerRun) }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: shop-wlan, wap-gprs, scale-1m or syncstorm (empty runs all four)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds to keep repeating rounds (at least 4 rounds run)")
	traced := fs.Int("trace", 0, "1 adds traced rounds and prints the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "", "with -trace 1, write each workload's profile, spans, phase spans and tables into this directory")
	repeat := fs.Int("repeat", 0, "run every workload at seeds 1..N, alternating workloads, and print each metric's median and IQR")
	tiny := fs.Bool("tiny", false, "shrink every workload to a smoke-test size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	all := specs(*tiny)
	chosen := all
	if *name != "" {
		chosen = nil
		for _, s := range all {
			if s.name == *name {
				chosen = append(chosen, s)
			}
		}
		if chosen == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *repeat > 0 {
		return repeatRuns(chosen, *repeat, *seconds, *traced == 1, stdout, stderr)
	}

	rep := report{Correct: true, Metrics: map[string]value{}}
	for _, spec := range chosen {
		res, err := measure(spec, *seed, *seconds, *traced == 1)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		ms := res.endToEnd()
		if *traced == 1 {
			ms = res.perLayer()
		}
		fmt.Fprintf(stdout, "%s: seed %d, %d rounds, %s\n", spec.name, *seed, len(res.rounds), res.describe())
		for _, m := range ms {
			fmt.Fprintf(stdout, "  %-34s %16.6g %s\n", m.name, m.value, m.unit)
		}
		for _, p := range res.problems {
			fmt.Fprintf(stdout, "  CHECK FAILED: %s\n", p)
		}
		if *out != "" && *traced == 1 {
			if err := res.writeTraceFiles(*out); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		rep.add(spec.name, len(chosen) > 1, res, ms)
	}
	b, err := json.Marshal(rep)
	if err != nil { // a metric that is not a finite number
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !rep.Correct {
		return 1
	}
	return 0
}

// report is the final JSON line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add folds one workload's result in; prefixed names carry the workload
// when one invocation runs several.
func (r *report) add(workload string, prefixed bool, res *result, ms []metric) {
	r.Correct = r.Correct && len(res.problems) == 0
	for _, rd := range res.rounds {
		r.Attempted += rd.win.attempted
		r.Failed += rd.win.failed
	}
	for _, m := range ms {
		name := m.name
		if prefixed {
			name = workload + "." + name
		}
		r.Metrics[name] = value{m.value, m.unit}
	}
}

// result is one workload's measured rounds.
type result struct {
	spec     workloadSpec
	rounds   []round     // untraced
	traced   []round     // one per world seed, like rounds[:seedsPerRun]
	prof     *cpuProfile // the traced rounds' profiles pooled
	phases   []phase
	problems []string // failed checks

	// The first seedsPerRun rounds pooled: one window per world seed.
	win    txns
	d, eng tally
	simLen time.Duration
	growth int
}

// measure runs rounds of spec until seconds of host time have passed (at
// least seedsPerRun), then a traced round per world seed if asked.
func measure(spec workloadSpec, seed int64, seconds float64, traced bool) (*result, error) {
	r := &runner{origin: time.Now()}
	res := &result{spec: spec, d: tally{}, eng: tally{}}
	budget := time.Duration(seconds * float64(time.Second))
	for i := 0; i < seedsPerRun || time.Since(r.origin) < budget; i++ {
		freeWorld()
		rd, err := r.runRound(spec, worldSeed(seed, i), i, false)
		if err != nil {
			return nil, err
		}
		res.rounds = append(res.rounds, rd)
		if i < seedsPerRun {
			res.win.add(rd.win)
			for k, v := range rd.d {
				res.d[k] += v
			}
			for k, v := range rd.eng {
				res.eng[k] += v
			}
			res.simLen += rd.simLen
			res.growth += rd.growth
		}
	}
	if traced {
		res.prof = &cpuProfile{byMod: map[string]int64{}}
		for i := 0; i < seedsPerRun; i++ {
			freeWorld()
			rd, err := r.runRound(spec, worldSeed(seed, i), len(res.rounds)+i, true)
			if err != nil {
				return nil, err
			}
			p, err := attribute(rd.profile)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.name, err)
			}
			res.prof.add(p)
			res.traced = append(res.traced, rd)
		}
	}
	freeWorld()
	res.phases = r.phases
	res.check()
	return res, nil
}

// check collects every failed invariant: a workload check in any round,
// and any round whose simulated results differ from the first round at
// the same world seed, traced rounds included.
func (res *result) check() {
	all := append(append([]round(nil), res.rounds...), res.traced...)
	for i, rd := range all {
		if rd.err != nil {
			res.problems = append(res.problems, fmt.Sprintf("round %d: %v", i, rd.err))
		}
		first := i % seedsPerRun
		if i >= len(res.rounds) {
			first = i - len(res.rounds)
		}
		if rd.digest != all[first].digest {
			res.problems = append(res.problems, fmt.Sprintf("round %d: simulated results differ from round %d at the same world seed (digest %016x vs %016x)", i, first, rd.digest, all[first].digest))
		}
	}
	if res.win.done == 0 {
		res.problems = append(res.problems, "no transaction completed in the windows")
	}
}

func (res *result) describe() string {
	return fmt.Sprintf("%d txns in %d windows of %v (%d beyond p99)",
		res.win.done, seedsPerRun, res.rounds[0].simLen, res.win.beyondP99())
}

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
}

// perRound is the median of f over untraced rounds.
func (res *result) perRound(f func(rd round) float64) float64 { return medianOf(res.rounds, f) }

func medianOf(rounds []round, f func(rd round) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, rd := range rounds {
		xs[i] = f(rd)
	}
	return median(xs)
}

func throughput(rd round) float64 { return float64(rd.win.done) / rd.wall.Seconds() }

// endToEnd are the metrics a user of the system sees: host throughput,
// set-up time and live memory (medians over rounds), and the simulated
// transaction latency (pooled over the world seeds).
func (res *result) endToEnd() []metric {
	s := res.win
	return []metric{
		{"txn_per_s", "txn/s", res.perRound(throughput)},
		{"setup_s", "s", res.perRound(func(rd round) float64 { return rd.setup.Seconds() })},
		{"live_heap_mb", "MB", res.perRound(func(rd round) float64 { return float64(rd.heap) / 1e6 })},
		{"txn_p50_ms", "ms", ms(s.quantile(0.50))},
		{"txn_p99_ms", "ms", ms(s.quantile(0.99))},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// perLayer are the per-layer metrics: host self time per module from the
// traced rounds' profiles, host costs of the untraced rounds (medians),
// exact simulated counts per transaction over the pooled windows, the
// modeled critical path of the traced rounds' sampled transactions, and
// the tracing overhead.
func (res *result) perLayer() []metric {
	d, eng, txns := res.d, res.eng, res.win.done
	per := func(n uint64) float64 { return ratio(n, txns) }
	lanes := float64(res.spec.lanes)
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v}) }

	p := res.prof
	usPerTxn := func(ns int64) float64 { return float64(ns) / 1e3 / float64(max(1, txns)) }
	for _, m := range modules {
		add(m+".cpu_us_per_txn", "us/txn", usPerTxn(p.byMod[m]))
	}
	add("runtime.gc_cpu_us_per_txn", "us/txn", usPerTxn(p.runtime))
	add("profile.samples", "count", float64(p.samples))
	attributed := 0.0
	if p.total > 0 {
		attributed = 1 - float64(p.other)/float64(p.total)
	}
	add("profile.attributed_share", "ratio", attributed)

	util := res.perRound(func(rd round) float64 { return rd.cpu.Seconds() / rd.wall.Seconds() })
	add("simnet.ns_per_event", "ns/event", res.perRound(func(rd round) float64 {
		return float64(rd.wall.Nanoseconds()) / float64(max(1, rd.d["simnet.events"]))
	}))
	add("simnet.shard.cpu_util", "cpu_s/s", util)
	add("simnet.shard.idle_share", "ratio", max(0, 1-util/lanes))
	add("runtime.alloc_kb_per_txn", "kB/txn", res.perRound(func(rd round) float64 {
		return float64(rd.alloc) / 1e3 / float64(max(1, rd.win.done))
	}))
	add("runtime.gc_per_ktxn", "gc/ktxn", res.perRound(func(rd round) float64 {
		return float64(rd.gcs) * 1e3 / float64(max(1, rd.win.done))
	}))

	add("simnet.events_per_txn", "event/txn", per(d["simnet.events"]))
	add("simnet.packets_per_txn", "pkt/txn", per(d["simnet.packets"]))
	add("simnet.drop_ratio", "ratio", ratio(d["simnet.drops"], d["simnet.packets"]+d["simnet.drops"]))
	add("simnet.wheel_cascades_per_txn", "cascade/txn", per(d["simnet.cascades"]))
	simSec := res.simLen.Seconds()
	add("simnet.shard.windows_per_sim_s", "window/s", float64(eng["windows"])/simSec)
	add("simnet.shard.barrier_waits_per_window", "wait/window", ratio(eng["barrier_waits"], eng["windows"]))
	add("simnet.shard.steals_per_window", "steal/window", ratio(eng["steals"], eng["windows"]))
	for _, radio := range []string{"wireless", "cellular"} {
		add(radio+".frames_per_txn", "frame/txn", per(d[radio+".delivered"]+d[radio+".lost"]))
		add(radio+".loss_ratio", "ratio", ratio(d[radio+".lost"], d[radio+".delivered"]+d[radio+".lost"]))
	}
	add("mtcp.segments_per_txn", "seg/txn", per(d["mtcp.segments_sent"]))
	add("mtcp.retransmit_ratio", "ratio", ratio(d["mtcp.retransmits"], d["mtcp.segments_sent"]))
	add("mtcp.conns_per_txn", "conn/txn", per(d["mtcp.conns_dialed"]))
	add("imode.air_bytes_per_txn", "B/txn", per(d["imode.bytes_to_air"]))
	add("wap.wtp_invokes_per_txn", "invoke/txn", per(d["wap.wtp.invokes"]))
	add("wap.wtp_retransmit_ratio", "ratio", ratio(d["wap.wtp.retransmits"], d["wap.wtp.invokes"]))
	add("wap.gw_cache_hit_ratio", "ratio", ratio(d["wap.gw.cache_hits"], d["wap.gw.requests"]))
	add("wap.gw_air_bytes_per_txn", "B/txn", per(d["wap.gw.bytes_to_air"]))
	add("webserver.requests_per_txn", "req/txn", per(d["web.server.requests"]))
	add("webserver.bytes_per_txn", "B/txn", per(d["web.server.bytes_served"]))
	add("webserver.error_ratio", "ratio", ratio(d["web.server.errors"], d["web.server.requests"]))
	add("webserver.retries_per_txn", "retry/txn", per(d["web.client.retries"]))
	add("database.commits_per_txn", "commit/txn", per(d["database.commits"]))
	add("database.abort_ratio", "ratio", ratio(d["database.aborts"], d["database.commits"]+d["database.aborts"]))
	add("repl.shipped_records_per_txn", "record/txn", per(d["repl.shipped_records"]))
	add("repl.nack_ratio", "ratio", ratio(d["repl.nacks"], d["repl.acks"]+d["repl.nacks"]))
	add("repl.elections", "count", float64(d["repl.elections"]))
	add("mobiledb.conflict_ratio", "ratio", ratio(d["mobiledb.conflicts"], d["mobiledb.writes"]))
	add("mobiledb.redirect_ratio", "ratio", ratio(d["mobiledb.redirects"], d["mobiledb.sessions"]))
	add("metrics.entries_per_txn", "entry/txn", per(uint64(max(0, res.growth))))
	add("faults.applied", "count", float64(d["faults.applied"]))
	add("error_rate", "ratio", ratio(res.win.attempted-res.win.done, res.win.attempted))
	add("txn.window_count", "txn", float64(txns))
	add("txn.beyond_p99", "txn", float64(res.win.beyondP99()))

	sum := trace.Summarize(res.breakdowns())
	for _, l := range critLayers {
		share := 0.0
		if sum.Total > 0 {
			share = float64(sum.ByLayer[l]) / float64(sum.Total)
		}
		add("critpath."+l.String()+"_share", "ratio", share)
	}
	add("critpath.traces", "txn", float64(sum.Count))
	add("trace.overhead_ratio", "ratio", res.perRound(throughput)/medianOf(res.traced, throughput)-1)
	return out
}

// critLayers are the paper's components on the transaction path, in the
// order the critical-path table prints them.
var critLayers = []trace.Layer{
	trace.LayerStation, trace.LayerWireless, trace.LayerMiddleware,
	trace.LayerWired, trace.LayerHost, trace.LayerTransport,
}

// breakdowns analyses each traced round's spans on its own (trace IDs
// repeat across worlds) and concatenates the per-transaction breakdowns.
func (res *result) breakdowns() []trace.Breakdown {
	var bds []trace.Breakdown
	for _, rd := range res.traced {
		bds = append(bds, trace.Analyze(rd.spans)...)
	}
	return bds
}

// writeTraceFiles writes the traced rounds' artifacts into dir: the CPU
// profile and spans of world seed 0's round, and tables over all of them.
func (res *result) writeTraceFiles(dir string) error {
	base := filepath.Join(dir, res.spec.name)
	tr := res.traced[0]
	if err := os.WriteFile(base+".pprof", tr.profile, 0o644); err != nil {
		return err
	}
	var errs []error
	write := func(suffix string, fn func(w io.Writer) error) {
		f, err := os.Create(base + suffix)
		if err != nil {
			errs = append(errs, err)
			return
		}
		errs = append(errs, fn(f), f.Close())
	}
	write(".modules.txt", res.prof.writeTable)
	write(".phases.json", func(w io.Writer) error { return writePhases(w, res.phases) })
	write(".spans.json", func(w io.Writer) error { return trace.WritePerfetto(w, tr.spans) })
	write(".critpath.txt", func(w io.Writer) error { return trace.WriteTable(w, res.breakdowns()) })
	return errors.Join(errs...)
}

// writeTable prints the module attribution, largest first.
func (p *cpuProfile) writeTable(w io.Writer) error {
	type row struct {
		name string
		ns   int64
	}
	rows := []row{{"runtime (no repository frame)", p.runtime}, {"other repository packages", p.other}}
	for m, ns := range p.byMod {
		rows = append(rows, row{m, ns})
	}
	sort.Slice(rows, func(i, j int) bool {
		return rows[i].ns > rows[j].ns || rows[i].ns == rows[j].ns && rows[i].name < rows[j].name
	})
	if _, err := fmt.Fprintf(w, "CPU over the traced windows: %d samples, %v\n", p.samples, time.Duration(p.total)); err != nil {
		return err
	}
	for _, r := range rows {
		share := 0.0
		if p.total > 0 {
			share = 100 * float64(r.ns) / float64(p.total)
		}
		if _, err := fmt.Fprintf(w, "  %-30s %12v %6.1f%%\n", r.name, time.Duration(r.ns), share); err != nil {
			return err
		}
	}
	return nil
}

// writePhases exports the benchmark's own phase spans as Chrome
// trace-event JSON (Perfetto), one track per round.
func writePhases(w io.Writer, phases []phase) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	evs := make([]event, len(phases))
	for i, p := range phases {
		evs[i] = event{p.name, "X", float64(p.start) / 1e3, float64(p.end-p.start) / 1e3, 1, p.round}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// repeatRuns measures every workload at seeds 1..n, alternating the
// workloads, and prints each metric's median, quartiles and IQR share.
func repeatRuns(chosen []workloadSpec, n int, seconds float64, traced bool, stdout, stderr io.Writer) int {
	vals := map[string]map[string][]float64{}
	units := map[string]string{}
	for i := 1; i <= n; i++ {
		for j := range chosen {
			spec := chosen[(i+j)%len(chosen)]
			res, err := measure(spec, int64(i), seconds, traced)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			if len(res.problems) > 0 {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", spec.name, i, res.problems)
				return 1
			}
			ms := res.endToEnd()
			if traced {
				ms = append(ms, res.perLayer()...)
			}
			if vals[spec.name] == nil {
				vals[spec.name] = map[string][]float64{}
			}
			for _, m := range ms {
				vals[spec.name][m.name] = append(vals[spec.name][m.name], m.value)
				units[m.name] = m.unit
			}
			fmt.Fprintf(stderr, "seed %d %s done\n", i, spec.name)
		}
	}
	type stat struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		IQRPct float64 `json:"iqr_pct"`
		Unit   string  `json:"unit"`
	}
	summary := map[string]map[string]stat{}
	for _, spec := range chosen {
		fmt.Fprintf(stdout, "%s (%d seeds):\n", spec.name, n)
		names := make([]string, 0, len(vals[spec.name]))
		for m := range vals[spec.name] {
			names = append(names, m)
		}
		sort.Strings(names)
		summary[spec.name] = map[string]stat{}
		for _, m := range names {
			xs := vals[spec.name][m]
			med := median(xs)
			q1, q3 := quartiles(xs)
			pct := 0.0
			if med != 0 {
				pct = 100 * (q3 - q1) / med
			}
			summary[spec.name][m] = stat{med, q1, q3, pct, units[m]}
			fmt.Fprintf(stdout, "  %-34s median %14.6g %-10s IQR %6.2f%%\n", m, med, units[m], pct)
		}
	}
	b, _ := json.Marshal(map[string]any{
		"seeds": n, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "workloads": summary,
	})
	fmt.Fprintln(stdout, string(b))
	return 0
}
