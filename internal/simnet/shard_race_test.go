package simnet

import (
	"fmt"
	"testing"
	"time"
)

// TestShardedRaceOwnership enforces the per-shard single-owner invariant
// under the race detector: eight shards run concurrently on eight
// workers, each hammering its own scheduler, metrics registry (counters,
// gauges, histograms), span tracer and packet pools while
// cross-shard traffic flows through the exchange rings every window.
// Any cross-shard touch of single-goroutine state — a shared counter, a
// tracer written from two lanes, a ring accessed without the barrier —
// fails `go test -race` here (verify.sh runs this package under -race).
func TestShardedRaceOwnership(t *testing.T) {
	const shards = 8
	rw := buildRingWorld(t, shards, 200, ringCfg)
	for k := 0; k < shards; k++ {
		net := rw.w.Shard(k)
		net.Tracer.EnableExport(1)
		h := net.Metrics.Histogram(fmt.Sprintf("racecheck.s%d.churn", k))
		g := net.Metrics.Gauge(fmt.Sprintf("racecheck.s%d.depth", k))
		c := net.Metrics.Counter(fmt.Sprintf("racecheck.s%d.ticks", k))
		sched := net.Sched
		n := 0
		var churn func()
		churn = func() {
			n++
			c.Inc()
			g.Set(int64(sched.Pending()))
			h.Observe(time.Duration(n%97) * time.Microsecond)
			if n < 5000 {
				sched.After(100*time.Microsecond, churn)
			}
		}
		sched.After(0, churn)
	}
	if err := rw.w.RunFor(2*time.Second, shards); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < shards; k++ {
		if got := rw.w.Snapshot().Counter(fmt.Sprintf("s%d.racecheck.s%d.ticks", k, k)); got != 5000 {
			t.Fatalf("shard %d churned %d ticks, want 5000", k, got)
		}
	}
	for k, n := range rw.got {
		if n == 0 {
			t.Fatalf("shard %d saw no cross-shard replies", k)
		}
	}
}
