package simnet

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// sweepShard is one shard's mutable benchmark state.
type sweepShard struct {
	got int // echo replies received
	n   int // churn ticks
}

// buildSweepWorld is the sustained sharded load for the scaling sweep:
// `shards` shards in a 5ms ring, each with a self-rescheduling event
// churn every churnEvery (the intra-shard work real stations generate)
// that sends a cross-shard echo every 64 ticks. The world never drains,
// so a RunFor of one lookahead is exactly one base window per shard.
func buildSweepWorld(tb testing.TB, shards int, churnEvery time.Duration) *Sharded {
	tb.Helper()
	w := NewSharded(42, shards)
	nodes := make([]*Node, shards)
	links := make([]*CrossLink, shards)
	for k := 0; k < shards; k++ {
		nodes[k] = w.Shard(k).NewNode(fmt.Sprintf("sweep%d", k))
	}
	for k := 0; k < shards; k++ {
		next := (k + 1) % shards
		cfg := ringCfg
		cfg.Name = fmt.Sprintf("sweep-%d-%d", k, next)
		l, err := w.Cross(nodes[k], nodes[next], cfg)
		if err != nil {
			tb.Fatal(err)
		}
		links[k] = l
	}
	st := make([]sweepShard, shards)
	for k := 0; k < shards; k++ {
		k := k
		nd := nodes[k]
		next := (k + 1) % shards
		prev := (k + shards - 1) % shards
		nd.SetRoute(nodes[next].ID, links[k].IfaceA())
		nd.SetRoute(nodes[prev].ID, links[prev].IfaceB())
		u := UDPOf(nd)
		if err := u.Listen(echoPort, func(from Addr, body any, bytes int) {
			u.Send(echoPort, from, body, bytes)
		}); err != nil {
			tb.Fatal(err)
		}
		port := u.ListenAny(func(from Addr, body any, bytes int) { st[k].got++ })
		sched := nd.Sched()
		dst := Addr{Node: nodes[next].ID, Port: echoPort}
		var churn func()
		churn = func() {
			st[k].n++
			if st[k].n%64 == 0 {
				u.Send(port, dst, nil, 100)
			}
			sched.After(churnEvery, churn)
		}
		sched.After(0, churn)
	}
	return w
}

// BenchmarkShardedSweep is the multi-core scaling grid bench.sh records:
// GOMAXPROCS {1,2,4} x worker lanes {1,4,8} on an 8-shard world (~64k
// events per window). Every entry reports the aggregate event rate, the
// host core count and the engine's per-window counters (windows, pair
// synchronization episodes, steals), so the synchronization cost is
// checkable even where wall-clock speedup is not measurable — benchjson
// flags single-core hosts and derives the per-lane speedup ratios.
func BenchmarkShardedSweep(b *testing.B) {
	const shards = 8
	run := func(b *testing.B, procs, lanes int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		w := buildSweepWorld(b, shards, 5*time.Microsecond)
		// Four base windows per op, as in every recorded trajectory point.
		span := 4 * w.Lookahead()
		if err := w.RunFor(span, lanes); err != nil {
			b.Fatal(err)
		}
		startEvents := w.Executed()
		s0 := w.EngineSnapshot()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.RunFor(span, lanes); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		events := w.Executed() - startEvents
		s1 := w.EngineSnapshot()
		perOp := func(name string) float64 {
			return float64(s1.Counter(name)-s0.Counter(name)) / float64(b.N)
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events_per_sec")
		b.ReportMetric(float64(runtime.NumCPU()), "cores")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "maxprocs")
		b.ReportMetric(perOp("simnet.shard.windows"), "windows/op")
		b.ReportMetric(perOp("simnet.shard.barrier_waits"), "pair_syncs/op")
		b.ReportMetric(perOp("simnet.shard.steals"), "steals/op")
	}
	for _, procs := range []int{1, 2, 4} {
		for _, lanes := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("maxprocs%d/lanes%d", procs, lanes), func(b *testing.B) {
				run(b, procs, lanes)
			})
		}
	}
}
