package workload_test

import (
	"strings"
	"testing"
	"time"

	"mcommerce/internal/core"
	"mcommerce/internal/device"
	"mcommerce/internal/workload"
)

func buildSystem(t *testing.T, seed int64, users int) *core.MC {
	t.Helper()
	profiles := make([]device.Profile, users)
	for i := range profiles {
		profiles[i] = device.Profiles()[i%len(device.Profiles())]
	}
	mc, err := core.BuildMC(core.MCConfig{Seed: seed, Devices: profiles})
	if err != nil {
		t.Fatalf("BuildMC: %v", err)
	}
	if err := workload.RegisterHandlers(mc.Host); err != nil {
		t.Fatalf("RegisterHandlers: %v", err)
	}
	return mc
}

func TestWorkloadRunsAllOpTypes(t *testing.T) {
	mc := buildSystem(t, 71, 5)
	r, err := workload.NewRunner(mc, workload.Config{
		Users: 5, ThinkMean: 500 * time.Millisecond, Duration: 2 * time.Minute,
	})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TotalOps < 100 {
		t.Errorf("TotalOps = %d; 5 users at ~2 op/s for 120 s should exceed 100", rep.TotalOps)
	}
	for _, op := range []workload.Op{workload.OpBrowse, workload.OpPay, workload.OpTrack, workload.OpSearch, workload.OpDownload} {
		or, ok := rep.Ops[op]
		if !ok || or.Count == 0 {
			t.Errorf("op %s never ran", op)
			continue
		}
		if or.Failures > 0 {
			t.Errorf("op %s failed %d times", op, or.Failures)
		}
		if or.P50 <= 0 || or.P95 < or.P50 || or.Worst < or.P95 {
			t.Errorf("op %s percentile ordering: %+v", op, or)
		}
	}
	if rep.Throughput <= 0 || rep.P95 <= 0 {
		t.Errorf("report summary: %+v", rep)
	}
	out := rep.String()
	for _, want := range []string{"workload:", "browse", "download", "p95"} {
		if !strings.Contains(out, want) {
			t.Errorf("report rendering missing %q:\n%s", want, out)
		}
	}
}

func TestWorkloadValidation(t *testing.T) {
	mc := buildSystem(t, 72, 2)
	ok := workload.Config{Users: 2, ThinkMean: time.Second, Duration: time.Minute}
	if _, err := workload.NewRunner(mc, ok); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := map[string]func(*workload.Config){
		"more users than stations": func(c *workload.Config) { c.Users = 5 },
		"zero users":               func(c *workload.Config) { c.Users = 0 },
		"zero think mean":          func(c *workload.Config) { c.ThinkMean = 0 },
		"negative think mean":      func(c *workload.Config) { c.ThinkMean = -time.Second },
		"zero duration":            func(c *workload.Config) { c.Duration = 0 },
	}
	for name, mutate := range bad {
		cfg := ok
		mutate(&cfg)
		if _, err := workload.NewRunner(mc, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestLongSoak runs half an hour of virtual workload and checks the system
// winds down cleanly: no stuck transactions, and the event queue drains
// (pending timers would indicate leaked protocol state).
func TestLongSoak(t *testing.T) {
	mc := buildSystem(t, 74, 5)
	r, err := workload.NewRunner(mc, workload.Config{
		Users: 5, ThinkMean: time.Second, Duration: 30 * time.Minute,
	})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	rep, err := r.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TotalOps < 2000 {
		t.Errorf("soak completed only %d ops", rep.TotalOps)
	}
	for op, or := range rep.Ops {
		if or.Failures > 0 {
			t.Errorf("%s failed %d times during soak", op, or.Failures)
		}
	}
	// Let all in-flight protocol activity (acks, tombstone reapers,
	// cache TTLs) expire, then the queue must be empty.
	if err := mc.Net.Sched.RunFor(10 * time.Minute); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := mc.Net.Sched.Run(); err != nil {
		t.Fatalf("final drain: %v", err)
	}
	if p := mc.Net.Sched.Pending(); p != 0 {
		t.Errorf("%d events still pending after drain — leaked timers?", p)
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	run := func() (int, time.Duration) {
		mc := buildSystem(t, 73, 3)
		r, err := workload.NewRunner(mc, workload.Config{Users: 3, ThinkMean: 2 * time.Second, Duration: time.Minute})
		if err != nil {
			t.Fatalf("NewRunner: %v", err)
		}
		rep, err := r.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep.TotalOps, rep.P95
	}
	ops1, p951 := run()
	ops2, p952 := run()
	if ops1 != ops2 || p951 != p952 {
		t.Errorf("runs diverged: (%d, %v) vs (%d, %v)", ops1, p951, ops2, p952)
	}
}
