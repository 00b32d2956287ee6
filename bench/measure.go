package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"mcommerce/internal/trace"
)

// tally is a set of cumulative per-layer counters read from a world:
// registry entries folded by class (see classify), plus database stats.
type tally map[string]uint64

// classify maps a registry entry name to the tally class it feeds, or "".
// Names are per-shard registry names (no "s<k>." prefix).
func classify(name string) string {
	last := name[strings.LastIndexByte(name, '.')+1:]
	switch {
	case strings.HasPrefix(name, "simnet.link.") || strings.HasPrefix(name, "simnet.xlink."):
		// simnet.link.<name>.<counter>.<ab|ba>
		rest := strings.TrimSuffix(name, "."+last)
		switch rest[strings.LastIndexByte(rest, '.')+1:] {
		case "delivered":
			return "simnet.packets"
		case "lost", "dropped_queue", "dropped_down":
			return "simnet.drops"
		}
	case strings.HasPrefix(name, "simnet.node."):
		if last == "dropped" {
			return "simnet.drops"
		}
	case name == "simnet.sched.executed":
		return "simnet.events"
	case name == "simnet.sched.wheel_cascades":
		return "simnet.cascades"
	case strings.HasPrefix(name, "wireless.") || strings.HasPrefix(name, "cellular."):
		radio := name[:strings.IndexByte(name, '.')]
		switch last {
		case "delivered":
			return radio + ".delivered"
		case "lost_errors", "lost_range", "dropped_queue":
			return radio + ".lost"
		}
	case strings.HasPrefix(name, "mtcp."):
		switch last {
		case "segments_sent", "retransmits", "conns_dialed":
			return "mtcp." + last
		}
	case strings.HasPrefix(name, "imode.gw."):
		if last == "bytes_to_air" {
			return "imode.bytes_to_air"
		}
	case strings.HasPrefix(name, "wap.wtp."):
		switch last {
		case "invokes", "retransmits":
			return "wap.wtp." + last
		}
	case strings.HasPrefix(name, "wap.gw."):
		switch last {
		case "requests", "cache_hits", "bytes_to_air":
			return "wap.gw." + last
		}
	case strings.HasPrefix(name, "web.server."):
		switch last {
		case "requests", "bytes_served", "errors":
			return "web.server." + last
		}
	case strings.HasPrefix(name, "web.client."):
		if last == "retries" {
			return "web.client.retries"
		}
	case strings.HasPrefix(name, "core.db.repl."):
		switch last {
		case "shipped_records", "acks", "nacks", "elections":
			return "repl." + last
		}
	case strings.HasPrefix(name, "mobiledb.sync."):
		switch last {
		case "writes", "conflicts", "redirects", "sessions":
			return "mobiledb." + last
		}
	case strings.HasPrefix(name, "faults."):
		// Applied faults, as faults.Stats.Total counts them.
		switch last {
		case "link_downs", "iface_downs", "brownouts", "crashes", "partitions", "sync_crashes":
			return "faults.applied"
		}
	}
	return ""
}

// probe is one reading of a world at a window edge.
type probe struct {
	sim     time.Duration
	t       tally
	eng     tally
	txn     txns
	entries int
}

// read takes a probe. With digest non-nil it also hashes every registry
// dump into it, so two runs that differ anywhere in their telemetry get
// different digests.
func read(w world, digest io.Writer) probe {
	p := probe{t: tally{}, eng: tally{}, txn: w.txns()}
	for _, n := range w.nets() {
		snap := n.Metrics.Snapshot()
		p.entries += len(snap.Entries)
		for _, e := range snap.Entries {
			if c := classify(e.Name); c != "" {
				p.t[c] += uint64(e.Value)
			}
		}
		if digest != nil {
			_ = snap.WriteText(digest) // hash.Hash writes never fail
		}
		p.sim = n.Sched.Now()
	}
	for _, db := range w.dbs() {
		c, a, _ := db.Stats()
		p.t["database.commits"] += c
		p.t["database.aborts"] += a
	}
	for _, e := range w.engine().Entries {
		p.eng[strings.TrimPrefix(e.Name, "simnet.shard.")] += uint64(e.Value)
	}
	return p
}

// delta returns b - a per class. A counter that went backwards was reset
// by a crash and restart in between; its current value is the delta.
func delta(a, b tally) tally {
	out := tally{}
	for k, v := range b {
		if v >= a[k] {
			out[k] = v - a[k]
		} else {
			out[k] = v
		}
	}
	return out
}

// profileHz is the CPU profile's sampling rate in traced rounds.
const profileHz = 500

// phase is one host-time span of the benchmark's own work.
type phase struct {
	name       string
	round      int
	start, end time.Duration // since the invocation began
}

// round is one set-up, warm-up, measured window, drain and verify of a
// workload's world.
type round struct {
	setup  time.Duration // host: build + simulated set-up + warm-up
	wall   time.Duration // host: the measured window
	cpu    time.Duration // process CPU during the window
	heap   uint64        // live heap after GC once the window's work drained
	alloc  uint64        // bytes allocated during the window
	gcs    uint32        // GC cycles during the window
	simLen time.Duration // simulated window length
	win    txns          // the window's transactions
	d      tally         // per-layer counters over the window
	eng    tally         // executor counters over the window
	growth int           // registry entries added during the window
	digest uint64
	err    error // a failed invariant

	spans   []trace.Span // traced rounds only
	profile []byte       // traced rounds only
}

// runner carries the state shared by every round of one invocation.
type runner struct {
	origin time.Time
	phases []phase
}

func (r *runner) timed(name string, idx int, fn func() error) error {
	p := phase{name: name, round: idx, start: time.Since(r.origin)}
	err := fn()
	p.end = time.Since(r.origin)
	r.phases = append(r.phases, p)
	return err
}

// tamper, when set by a test, breaks a world's state after its window so
// the test can check that the invariant catches it.
var tamper func(world)

// runRound builds the world and runs every phase once. traced enables the
// span tracer (1 in spec.sample traces) and a CPU profile over the window.
// Errors are failures to run at all; a broken invariant is returned in
// round.err so the caller can still report the rest.
func (r *runner) runRound(spec workloadSpec, seed int64, idx int, traced bool) (round, error) {
	var rd round
	var w world
	begin := time.Now()
	if err := r.timed("build", idx, func() (err error) { w, err = spec.build(seed); return err }); err != nil {
		return rd, fmt.Errorf("%s: build: %w", spec.name, err)
	}
	if err := r.timed("setup", idx, w.setup); err != nil {
		return rd, fmt.Errorf("%s: setup: %w", spec.name, err)
	}
	if err := r.timed("warmup", idx, func() error { return w.advance(spec.warm) }); err != nil {
		return rd, fmt.Errorf("%s: warm-up: %w", spec.name, err)
	}
	rd.setup = time.Since(begin)

	if traced {
		for _, n := range w.nets() {
			n.Tracer.EnableExport(spec.sample)
		}
	}
	before := read(w, nil)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if traced {
		// The default 100 Hz gives under a hundred samples in the short
		// windows. Setting the rate first makes StartCPUProfile keep it
		// (and print a harmless notice to stderr).
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rd, fmt.Errorf("%s: cpu profile: %w", spec.name, err)
		}
	}
	cpu0 := cpuTime()
	start := time.Now()
	err := r.timed("measure", idx, func() error { return w.advance(spec.window) })
	rd.wall = time.Since(start)
	rd.cpu = cpuTime() - cpu0
	if traced {
		pprof.StopCPUProfile()
		rd.profile = prof.Bytes()
	}
	if err != nil {
		return rd, fmt.Errorf("%s: window: %w", spec.name, err)
	}
	runtime.ReadMemStats(&m1)
	rd.alloc, rd.gcs = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC

	h := fnv.New64a()
	after := read(w, h)
	rd.simLen = after.sim - before.sim
	rd.win = after.txn.sub(before.txn)
	rd.d, rd.eng = delta(before.t, after.t), delta(before.eng, after.eng)
	rd.growth = after.entries - before.entries
	if traced {
		for _, n := range w.nets() {
			rd.spans = append(rd.spans, n.Tracer.Spans()...)
		}
	}

	if tamper != nil {
		tamper(w)
	}
	if err := r.timed("drain", idx, w.drain); err != nil {
		return rd, fmt.Errorf("%s: drain: %w", spec.name, err)
	}
	// Live heap once the window's in-flight work has drained, with the
	// world still referenced: what the world retains, not what happened
	// to be in flight at one instant.
	runtime.GC()
	runtime.ReadMemStats(&m1)
	rd.heap = m1.HeapAlloc
	var summary string
	_ = r.timed("verify", idx, func() error {
		summary, rd.err = w.verify()
		return rd.err
	})
	fmt.Fprintf(h, "sim=%v txns=%d/%d/%d p50=%v p99=%v %s", rd.simLen, rd.win.done, rd.win.attempted, rd.win.failed,
		rd.win.quantile(0.50), rd.win.quantile(0.99), summary)
	rd.digest = h.Sum64()
	return rd, nil
}

// freeWorld collects the previous round's world before the next build, so
// every round starts from the same heap. The pages stay mapped: returning
// them to the OS would make every build pay for faulting them in again.
func freeWorld() { runtime.GC() }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(xs,
// n=4) does (the default "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(ld-1, j))
		d := float64(i*m - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return q(1), q(3)
}
