package obs

import (
	"bytes"
	"testing"
	"time"

	"mcommerce/internal/simnet"
)

// testWorld builds a standalone network whose metrics evolve on a known
// schedule: a counter +1 every 30ms, a gauge tracking the tick count,
// and a histogram observing (tick*10)ms latencies — all deterministic.
func testWorld(seed int64, horizon time.Duration) *simnet.Network {
	net := simnet.NewNetwork(simnet.NewScheduler(seed))
	c := net.Metrics.Counter("app.requests")
	g := net.Metrics.Gauge("app.inflight")
	h := net.Metrics.Histogram("app.latency")
	tick := 0
	var step func()
	step = func() {
		tick++
		c.Inc()
		g.Set(int64(tick % 7))
		h.Observe(time.Duration(tick%20+1) * 10 * time.Millisecond)
		if d := time.Duration(tick) * 30 * time.Millisecond; d < horizon {
			net.Sched.At(d, step)
		}
	}
	net.Sched.At(0, step)
	return net
}

func TestTimelineSamplesCumulativeReadings(t *testing.T) {
	net := testWorld(1, 2*time.Second)
	tl := NewTimeline(100 * time.Millisecond)
	ws := tl.Attach(net)
	if err := net.Sched.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ws.Samples() < 20 {
		t.Fatalf("only %d samples over a 2s workload at 100ms", ws.Samples())
	}
	var req, lat *Series
	for _, s := range ws.Series() {
		switch s.Name() {
		case "app.requests":
			req = s
		case "app.latency":
			lat = s
		}
	}
	if req == nil || lat == nil {
		t.Fatal("expected series missing")
	}
	// Sample 0 fires at the first interval boundary (100ms): the
	// counter holds the ticks fired so far — 0, 30, 60, 90ms → 4.
	if got := req.ValueAt(0); got != 4 {
		t.Errorf("requests at first sample = %d, want 4", got)
	}
	// Counter readings are nondecreasing and end at the true total.
	first, n := ws.Retained()
	prev := int64(-1)
	for a := first; a < n; a++ {
		v := req.ValueAt(a)
		if v < prev {
			t.Fatalf("counter went backwards at sample %d: %d < %d", a, v, prev)
		}
		prev = v
	}
	if c, _, _ := lat.HistAt(n - 1); c != uint64(prev) {
		t.Errorf("final histogram count %d != final counter %d", c, prev)
	}
	// Windowed quantile over an interval that saw no observations is 0.
	if q := lat.WindowQuantile(n-1, n-1, 0.99); q != 0 {
		t.Errorf("empty window quantile = %v, want 0", q)
	}
}

func TestTimelineWindowedQuantiles(t *testing.T) {
	// Two bursts of observations with distinct magnitudes: the windowed
	// p99 must reflect only the window's burst, not the cumulative mix.
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	h := net.Metrics.Histogram("burst.latency")
	net.Sched.At(50*time.Millisecond, func() {
		for i := 0; i < 100; i++ {
			h.Observe(10 * time.Millisecond)
		}
	})
	net.Sched.At(150*time.Millisecond, func() {
		for i := 0; i < 100; i++ {
			h.Observe(2 * time.Second)
		}
	})
	tl := NewTimeline(100 * time.Millisecond)
	ws := tl.Attach(net)
	if err := net.Sched.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	var s *Series
	for _, c := range ws.Series() {
		if c.Name() == "burst.latency" {
			s = c
		}
	}
	// Sample 0 is the 100ms tick. Window (..., 100ms]: only the fast
	// burst (an index before Start() reads as all-zero).
	if q := s.WindowQuantile(-1, 0, 0.99); q > 100*time.Millisecond {
		t.Errorf("fast-burst window p99 = %v, want <= bucket bound near 10ms", q)
	}
	// Window (100ms, 200ms]: only the slow burst, despite the fast one
	// dominating the cumulative distribution's low end.
	if q := s.WindowQuantile(0, 1, 0.99); q < time.Second {
		t.Errorf("slow-burst window p99 = %v, want >= 1s", q)
	}
}

func TestTimelineQuiesce(t *testing.T) {
	// A standalone world stops sampling when the workload drains: no
	// ticking through the dead 58 seconds after a 2s workload.
	net := testWorld(1, 2*time.Second)
	tl := NewTimeline(100 * time.Millisecond)
	ws := tl.Attach(net)
	if err := net.Sched.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if ws.Samples() > 25 {
		t.Errorf("sampler took %d samples: did not quiesce after the workload drained", ws.Samples())
	}
}

func TestTimelineRingWrap(t *testing.T) {
	net := testWorld(1, 2*time.Second)
	tl := NewTimeline(100 * time.Millisecond)
	tl.maxWindows = 4
	ws := tl.Attach(net)
	if err := net.Sched.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	first, n := ws.Retained()
	if n-first != 4 {
		t.Fatalf("retained %d windows, want 4", n-first)
	}
	if ws.Samples() <= 4 {
		t.Fatalf("expected eviction, got only %d samples", ws.Samples())
	}
	// Retained times are the LAST four ticks, still strictly increasing.
	prev := time.Duration(-1)
	for a := first; a < n; a++ {
		at := ws.TimeAt(a)
		if at <= prev {
			t.Fatalf("retained times not increasing: %v after %v", at, prev)
		}
		prev = at
	}
	if want := time.Duration(ws.Samples()) * 100 * time.Millisecond; prev != want {
		t.Errorf("last retained time = %v, want %v", prev, want)
	}
}

func TestTimelineDeterministicExport(t *testing.T) {
	run := func() []byte {
		net := testWorld(42, 2*time.Second)
		tl := NewTimeline(100 * time.Millisecond)
		tl.Attach(net)
		if err := net.Sched.RunFor(3 * time.Second); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := WriteJSON(&b, tl, Evaluate(tl, DefaultRules("default"))); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed timeline exports differ")
	}
}

// TestTimelineShardedPrefixes pins AttachSharded's per-shard samplers: a
// multi-shard world samples each shard prefixed "s<k>.", and a one-shard
// world (mcload -scale or -sync at -gateways 1) samples unprefixed and
// writes the same timeline as Attach("") on a plain network at the same
// seed. The counter adds the node's ID and a seeded draw, so the
// comparison also covers shard 0's seed and ID base.
func TestTimelineShardedPrefixes(t *testing.T) {
	populate := func(net *simnet.Network) {
		nd := net.NewNode("n")
		c := net.Metrics.Counter("x")
		for i := 0; i < 5; i++ {
			net.Sched.At(time.Duration(i)*time.Millisecond, func() {
				c.Add(uint64(nd.ID) + uint64(net.Sched.Rand().Intn(1000)))
			})
		}
	}
	export := func(tl *Timeline) string {
		var b bytes.Buffer
		if err := WriteJSON(&b, tl, nil); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, tc := range []struct {
		shards   int
		prefixes []string
	}{
		{1, []string{""}},
		{2, []string{"s0.", "s1."}},
	} {
		w := simnet.NewSharded(7, tc.shards)
		for k := 0; k < tc.shards; k++ {
			populate(w.Shard(k))
		}
		tl := NewTimeline(time.Millisecond)
		samplers := tl.AttachSharded(w)
		if len(samplers) != tc.shards {
			t.Fatalf("%d shards: got %d samplers", tc.shards, len(samplers))
		}
		for k, ws := range samplers {
			if ws.Prefix() != tc.prefixes[k] {
				t.Fatalf("%d shards: sampler %d prefix %q, want %q", tc.shards, k, ws.Prefix(), tc.prefixes[k])
			}
		}
		if err := w.RunFor(10*time.Millisecond, 2); err != nil {
			t.Fatal(err)
		}
		last := tc.shards - 1
		found := false
		for _, s := range samplers[last].Series() {
			if s.Name() == tc.prefixes[last]+"x" {
				found = true
			}
		}
		if !found {
			t.Errorf("%d shards: shard %d has no series %q", tc.shards, last, tc.prefixes[last]+"x")
		}
		if tc.shards > 1 {
			continue
		}
		serial := simnet.NewNetwork(simnet.NewScheduler(7))
		populate(serial)
		ref := NewTimeline(time.Millisecond)
		ref.Attach(serial)
		if err := serial.Sched.RunFor(10 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if got, want := export(tl), export(ref); got != want {
			t.Errorf("one-shard timeline differs from the serial one:\n--- serial ---\n%s\n--- one shard ---\n%s", want, got)
		}
	}
}

// TestTimelineSampleZeroAlloc pins the zero-allocation steady state:
// once every ring has grown to maxWindows, a sample allocates nothing.
func TestTimelineSampleZeroAlloc(t *testing.T) {
	net := testWorld(1, time.Hour) // workload never drains during the test
	tl := NewTimeline(100 * time.Millisecond)
	tl.maxWindows = 8
	ws := tl.Attach(net)
	if err := net.Sched.RunFor(2 * time.Second); err != nil { // fills all rings
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() { ws.sample() })
	if allocs != 0 {
		t.Errorf("steady-state sample allocates %.1f times, want 0", allocs)
	}
}

func BenchmarkTimelineSample(b *testing.B) {
	net := testWorld(1, time.Hour)
	tl := NewTimeline(100 * time.Millisecond)
	tl.maxWindows = 64
	ws := tl.Attach(net)
	if err := net.Sched.RunFor(10 * time.Second); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.sample()
	}
}
