package simnet

import (
	"math"
	"testing"
	"time"
)

// TestLinkDropReasonsTraced checks that every link-level discard mode is
// annotated onto the packet's span with a distinguishing reason, and that
// the counters separate queue overflow from loss-model drops.
func TestLinkDropReasonsTraced(t *testing.T) {
	net := NewNetwork(NewScheduler(9))
	a := net.NewNode("a")
	b := net.NewNode("b")
	l := Connect(a, b, LinkConfig{Rate: 8 * Kbps, Delay: time.Millisecond, QueueLen: 2, Loss: 0})
	a.SetDefaultRoute(l.IfaceA())
	b.Bind(ProtoControl, func(p *Packet) {})
	net.Tracer.EnableExport(1)

	// Every packet travels under its own root span, so no span overflows
	// its annotation slots and reasons counts each drop exactly once.
	reasons := map[string]int{}
	sendBurst := func(n int) {
		for i := 0; i < n; i++ {
			sendTraced(net, a, &Packet{Src: Addr{Node: a.ID}, Dst: Addr{Node: b.ID}, Proto: ProtoControl, Bytes: 1000})
		}
		for net.Sched.Step() {
		}
		reasons = annotCounts(net)
	}
	send := func(n int) { // drains between packets: never overflows
		for i := 0; i < n; i++ {
			sendBurst(1)
		}
	}

	// Queue overflow: burst past the 2-packet queue on a slow link.
	sendBurst(8)
	if reasons["queue-overflow"] == 0 || l.Dropped[0] == 0 {
		t.Errorf("no queue-overflow drops observed (trace=%d counter=%d)", reasons["queue-overflow"], l.Dropped[0])
	}
	if l.Lost[0] != 0 {
		t.Errorf("loss counter moved on a loss-free link: Lost=%d", l.Lost[0])
	}

	// Random loss.
	l.cfg.Loss = 1.0
	send(3)
	if reasons["loss"] != 3 || l.Lost[0] != 3 {
		t.Errorf("random loss: trace=%d counter=%d, want 3", reasons["loss"], l.Lost[0])
	}

	// Admin down.
	l.cfg.Loss = 0
	l.SetDown(true)
	send(2)
	if reasons["link-down"] != 2 || l.DroppedDown[0] != 2 {
		t.Errorf("link-down: trace=%d counter=%d, want 2", reasons["link-down"], l.DroppedDown[0])
	}
	l.SetDown(false)
	send(1)
	if reasons["link-down"] != 2 {
		t.Error("packets still dropped after SetDown(false)")
	}
}

// TestLinkAdminStateZeroValueSafe pins nil/zero-value safety of the admin
// setters.
func TestLinkAdminStateZeroValueSafe(t *testing.T) {
	var l *Link
	l.SetDown(true) // must not panic
	if l.IsDown() != false {
		t.Error("nil link reports down")
	}
	var zero Link
	zero.SetDown(true)
	if !zero.IsDown() {
		t.Error("zero link did not record down state")
	}
	var ifc *Iface
	ifc.SetDown(true) // must not panic
	if !ifc.IsDown() {
		t.Error("nil iface should report down")
	}
	up := &Iface{Up: true}
	up.SetDown(true)
	if up.Up || !up.IsDown() {
		t.Error("SetDown(true) did not clear Up")
	}
	up.SetDown(false)
	if !up.Up {
		t.Error("SetDown(false) did not set Up")
	}
}

// TestDegradeRestore checks brownout semantics: Degrade scales rate and
// adds loss, repeated Degrades replace each other, Restore reverts.
func TestDegradeRestore(t *testing.T) {
	net := NewNetwork(NewScheduler(1))
	a := net.NewNode("a")
	b := net.NewNode("b")
	l := Connect(a, b, LinkConfig{Rate: 10 * Mbps, Delay: time.Millisecond, Loss: 0.1})

	l.Degrade(0.5, 0.2)
	if got := l.cfg.Rate; got != 5*Mbps {
		t.Errorf("degraded rate = %v, want 5Mbps", got)
	}
	if got := l.cfg.Loss; math.Abs(got-0.3) > 1e-12 {
		t.Errorf("degraded loss = %v, want 0.3", got)
	}
	// Replace, not compound.
	l.Degrade(0.1, 0)
	if got := l.cfg.Rate; got != 1*Mbps {
		t.Errorf("second degrade rate = %v, want 1Mbps", got)
	}
	if got := l.cfg.Loss; math.Abs(got-0.1) > 1e-12 {
		t.Errorf("second degrade loss = %v, want base 0.1", got)
	}
	l.Restore()
	if got := l.cfg; got.Rate != 10*Mbps || math.Abs(got.Loss-0.1) > 1e-12 {
		t.Errorf("restored config = %+v, want original", got)
	}
	// Restore with no brownout: no-op.
	l.Restore()
	if got := l.cfg.Rate; got != 10*Mbps {
		t.Errorf("idempotent restore broke config: %v", got)
	}
}
