package workload_test

import (
	"testing"
	"time"

	"mcommerce/internal/simnet"
	"mcommerce/internal/workload"
)

// buildFlowsWorld wires one cell of virtual stations against an echo
// server over a single link — the minimal closed loop exercising
// fire -> request -> reply -> think re-arm.
func buildFlowsWorld(t testing.TB, seed int64, stations int) (*simnet.Network, *workload.Flows) {
	t.Helper()
	net := simnet.NewNetwork(simnet.NewScheduler(seed))
	cell := net.NewNode("cell")
	srv := net.NewNode("srv")
	l := simnet.Connect(cell, srv, simnet.LinkConfig{
		Rate: simnet.Gbps, Delay: time.Millisecond, QueueLen: 1 << 16,
	})
	cell.SetDefaultRoute(l.IfaceA())
	srv.SetDefaultRoute(l.IfaceB())
	if _, err := workload.ServeEcho(srv, "srv", 256); err != nil {
		t.Fatalf("ServeEcho: %v", err)
	}
	f, err := workload.NewFlows(cell, "cell", workload.FlowConfig{
		Stations:  stations,
		FirstPort: 10000,
		Target:    func(int) simnet.Addr { return simnet.Addr{Node: srv.ID, Port: workload.EchoPort} },
		ThinkMean: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewFlows: %v", err)
	}
	return net, f
}

// TestFlowsReplyPathZeroAlloc pins the whole virtual-station op loop —
// request fire, echo response, station reply, think-timer re-arm via the
// scheduler's Rearm fast path — at zero steady-state allocations. A closure or unpooled body anywhere on
// the path turns every one of the million stations' ops into garbage;
// this test makes that a failure, not a profile regression.
func TestFlowsReplyPathZeroAlloc(t *testing.T) {
	net, f := buildFlowsWorld(t, 11, 50)
	// Warm up: fills the scheduler arena and packet pools.
	if err := net.Sched.RunFor(2 * time.Second); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	if f.Ops == 0 {
		t.Fatal("warmup completed no operations")
	}
	before := f.Ops
	avg := testing.AllocsPerRun(20, func() {
		if err := net.Sched.RunFor(200 * time.Millisecond); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if f.Ops == before {
		t.Fatal("measured window completed no operations")
	}
	if avg != 0 {
		t.Fatalf("flows reply/re-arm path allocates: %v allocs per 200ms window", avg)
	}
}

func TestFlowsRejectsZeroThinkMean(t *testing.T) {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	_, err := workload.NewFlows(net.NewNode("cell"), "cell", workload.FlowConfig{
		Stations: 1, FirstPort: 10000,
		Target: func(int) simnet.Addr { return simnet.Addr{} },
	})
	if err == nil {
		t.Error("zero think mean accepted")
	}
}
