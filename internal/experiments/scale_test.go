package experiments

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// smallScale is the worker-invariance fixture: big enough that every
// shard stays busy and the backbone carries cross-shard traffic, small
// enough to run in milliseconds.
func smallScale(t testing.TB, workers int) *ScaleWorld {
	t.Helper()
	sw, err := BuildScale(ScaleConfig{
		Seed:            7,
		Gateways:        4,
		CellsPerGateway: 2,
		StationsPerCell: 25,
		ThinkMean:       200 * time.Millisecond,
		Duration:        5 * time.Second,
		Workers:         workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestScaleWorkerInvariance pins the determinism contract at the scale
// tier: the digest (merged metrics + clock + event counts) is
// byte-identical no matter how many worker lanes execute the windows.
func TestScaleWorkerInvariance(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 8} {
		sw := smallScale(t, workers)
		if _, err := sw.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := sw.Digest()
		if workers == 1 {
			want = got
			rep := sw.Report()
			if rep.Ops == 0 {
				t.Fatal("no operations completed")
			}
			if rep.Shards != 4 {
				t.Fatalf("expected 4 shards, got %d", rep.Shards)
			}
			continue
		}
		if got != want {
			t.Fatalf("digest diverges at workers=%d:\n--- workers=1\n%s\n--- workers=%d\n%s", workers, want, workers, got)
		}
	}
}

// TestScaleRegistryWorkerInvariance pins the same contract on the
// registry experiment itself: mcbench -shards N must not change output.
func TestScaleRegistryWorkerInvariance(t *testing.T) {
	old := Workers
	defer func() { Workers = old }()
	Workers = 1
	want := Scale(3).String()
	Workers = 4
	if got := Scale(3).String(); got != want {
		t.Fatalf("scale experiment output depends on Workers:\n--- workers=1\n%s\n--- workers=4\n%s", want, got)
	}
}

// TestScaleRemoteTraffic checks the cross-shard path carries real load:
// with RemotePerMille=1000 every operation crosses the backbone, so
// every served request lands on the *next* cluster's echo.
func TestScaleRemoteTraffic(t *testing.T) {
	sw, err := BuildScale(ScaleConfig{
		Seed:            11,
		Gateways:        3,
		CellsPerGateway: 1,
		StationsPerCell: 10,
		RemotePerMille:  1000,
		ThinkMean:       100 * time.Millisecond,
		Duration:        3 * time.Second,
		Workers:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 {
		t.Fatal("no operations completed")
	}
	for c, cl := range rep.Clusters {
		if cl.Served == 0 {
			t.Fatalf("cluster %d served nothing — remote traffic never crossed the backbone", c)
		}
	}
	if la := sw.World.Lookahead(); la != scaleBackbone.Delay {
		t.Fatalf("lookahead %v, want backbone delay %v", la, scaleBackbone.Delay)
	}
}

// TestScaleSmoke1M builds a million-station topology (8 clusters x 4
// cells x 31250 virtual stations), steps it for a truncated horizon on
// one worker lane (serial) and on eight (sharded), and compares digests.
// ~1 GB peak and tens of seconds, so it is skipped under -short.
func TestScaleSmoke1M(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-station smoke skipped in -short mode")
	}
	cfg := ScaleConfig{
		Seed:            42,
		Gateways:        8,
		CellsPerGateway: 4,
		StationsPerCell: 31250, // 8*4*31250 = 1,000,000
		ThinkMean:       2 * time.Second,
		Duration:        250 * time.Millisecond, // truncated horizon
	}
	digest := func(workers int) string {
		c := cfg
		c.Workers = workers
		sw, err := BuildScale(c)
		if err != nil {
			t.Fatal(err)
		}
		if sw.Stations() != 1_000_000 {
			t.Fatalf("expected 1M stations, got %d", sw.Stations())
		}
		if _, err := sw.Run(); err != nil {
			t.Fatal(err)
		}
		if sw.World.Executed() == 0 {
			t.Fatal("nothing executed")
		}
		return sw.Digest()
	}
	serial := digest(1)
	runtime.GC() // drop the first world before building the second
	sharded := digest(8)
	if serial != sharded {
		t.Fatalf("1M-station digests diverge between serial and sharded execution:\n--- serial ---\n%.2000s\n--- sharded ---\n%.2000s", serial, sharded)
	}
}

// BenchmarkScaleStep100k is the acceptance benchmark: one conservative
// window over a 100k-station world (8 shards), serial lane vs eight
// lanes. The world never drains (stations think and refire forever), so
// each iteration advances exactly one lookahead window. On a multi-core
// host workers8 approaches linear scaling; cores/maxprocs are recorded
// so single-core results are not mistaken for a scaling failure.
func BenchmarkScaleStep100k(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			sw, err := BuildScale(ScaleConfig{
				Seed:            1,
				Gateways:        8,
				CellsPerGateway: 4,
				StationsPerCell: 3125, // 8*4*3125 = 100,000
				ThinkMean:       500 * time.Millisecond,
				Workers:         workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			la := sw.World.Lookahead()
			// Warm: one window fills pools and rings.
			if err := sw.World.RunFor(la, workers); err != nil {
				b.Fatal(err)
			}
			start := sw.World.Executed()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sw.World.RunFor(la, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			events := sw.World.Executed() - start
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events_per_sec")
			b.ReportMetric(float64(runtime.NumCPU()), "cores")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "maxprocs")
		})
	}
}
