package simnet

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// buildBenchWorld is the synthetic sharded load: `shards` shards, each
// with a self-rescheduling event churn of `churnEvery` period (the
// intra-shard work a real world's stations generate) plus steady
// cross-shard echo traffic. The world never drains, so one benchmark
// iteration is exactly one conservative window.
func buildBenchWorld(b *testing.B, shards int, churnEvery time.Duration) *ringWorld {
	b.Helper()
	rw := buildRingWorld(b, shards, 0, ringCfg)
	for k := 0; k < shards; k++ {
		k := k
		nd := rw.nodes[k]
		sched := nd.Sched()
		u := UDPOf(nd)
		port := u.ListenAny(func(_ Port, from Addr, body any, bytes int) { rw.got[k]++ })
		next := (k + 1) % shards
		dst := Addr{Node: rw.nodes[next].ID, Port: echoPort}
		var churn func()
		n := 0
		churn = func() {
			n++
			if n%64 == 0 {
				u.Send(port, dst, nil, 100)
			}
			sched.After(churnEvery, churn)
		}
		sched.After(0, churn)
	}
	return rw
}

// BenchmarkShardedWindow measures one conservative window (5ms of
// virtual time across 8 shards, ~64k events per window) at worker counts
// 1 and 8: the serial-vs-parallel Step-throughput comparison the
// scaling claim rests on. events_per_sec is the aggregate event rate.
// Wall-clock speedup requires runtime.NumCPU() cores; on a single-core
// host the two cases collapse to the same rate (plus barrier overhead),
// which the recorded cores/maxprocs metrics make visible.
func BenchmarkShardedWindow(b *testing.B) {
	const shards = 8
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			rw := buildBenchWorld(b, shards, 5*time.Microsecond)
			la := rw.w.Lookahead()
			// Warm pools and rings with one window.
			if err := rw.w.RunFor(la, workers); err != nil {
				b.Fatal(err)
			}
			start := rw.w.Executed()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rw.w.RunFor(la, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			events := rw.w.Executed() - start
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events_per_sec")
			b.ReportMetric(float64(runtime.NumCPU()), "cores")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "maxprocs")
		})
	}
}
