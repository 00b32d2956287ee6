package simnet

import (
	"math"
	"testing"
	"time"
)

// burstTopo builds a one-way link with the given config and a counter on
// the receiving side.
func burstTopo(seed int64, cfg LinkConfig) (*Network, *Node, *Link, *int) {
	net := NewNetwork(NewScheduler(seed))
	a := net.NewNode("a")
	b := net.NewNode("b")
	l := Connect(a, b, cfg)
	a.SetDefaultRoute(l.IfaceA())
	got := new(int)
	b.Bind(ProtoControl, func(p *Packet) { *got++ })
	return net, a, l, got
}

func sendN(net *Network, a *Node, dst NodeID, n int) {
	for i := 0; i < n; i++ {
		p := net.AllocPacket()
		p.Src = Addr{Node: a.ID}
		p.Dst = Addr{Node: dst}
		p.Proto = ProtoControl
		p.Bytes = 100
		a.Send(p)
		for net.Sched.Pending() > 64 {
			net.Sched.Step()
		}
	}
	for net.Sched.Step() {
	}
}

// TestGilbertElliottStationaryLoss checks that the long-run loss rate of
// the two-state chain converges to the analytic stationary value at a
// fixed seed.
func TestGilbertElliottStationaryLoss(t *testing.T) {
	g := GilbertElliott{PGoodToBad: 0.05, PBadToGood: 0.25, LossGood: 0.01, LossBad: 0.8}
	cfg := LinkConfig{Rate: 10 * Mbps, Delay: time.Millisecond, QueueLen: 1 << 16, Burst: g}
	net, a, l, got := burstTopo(3, cfg)

	const n = 200_000
	sendN(net, a, 2, n)

	want := g.StationaryLoss()
	lossRate := float64(l.Lost[0]) / float64(n)
	if math.Abs(lossRate-want) > 0.01 {
		t.Errorf("long-run loss %.4f, want %.4f +/- 0.01 (stationary)", lossRate, want)
	}
	if *got+int(l.Lost[0]) != n {
		t.Errorf("delivered(%d)+lost(%d) != sent(%d)", *got, l.Lost[0], n)
	}
	// All loss came from the burst model, none from the independent model.
	if l.LostRandom[0] != 0 {
		t.Errorf("LostRandom = %d, want 0 (no independent loss configured)", l.LostRandom[0])
	}
	if l.LostBurst[0] != l.Lost[0] {
		t.Errorf("LostBurst = %d, Lost = %d; want equal", l.LostBurst[0], l.Lost[0])
	}
}

// TestGilbertElliottBurstiness checks the defining property of the model:
// at equal long-run loss, losses cluster into longer runs than independent
// loss produces.
func TestGilbertElliottBurstiness(t *testing.T) {
	g := GilbertElliott{PGoodToBad: 0.02, PBadToGood: 0.2, LossBad: 1.0}
	const n = 100_000

	runLengths := func(cfg LinkConfig) (mean float64) {
		net := NewNetwork(NewScheduler(5))
		a := net.NewNode("a")
		b := net.NewNode("b")
		l := Connect(a, b, cfg)
		a.SetDefaultRoute(l.IfaceA())
		var outcomes []bool // true = lost
		b.Bind(ProtoControl, func(p *Packet) {})
		prevLost := l.Lost[0]
		for i := 0; i < n; i++ {
			p := net.AllocPacket()
			p.Src = Addr{Node: a.ID}
			p.Dst = Addr{Node: b.ID}
			p.Proto = ProtoControl
			p.Bytes = 100
			a.Send(p)
			outcomes = append(outcomes, l.Lost[0] > prevLost)
			prevLost = l.Lost[0]
			for net.Sched.Pending() > 64 {
				net.Sched.Step()
			}
		}
		runs, lost := 0, 0
		inRun := false
		for _, o := range outcomes {
			if o {
				lost++
				if !inRun {
					runs++
					inRun = true
				}
			} else {
				inRun = false
			}
		}
		if runs == 0 {
			return 0
		}
		return float64(lost) / float64(runs)
	}

	burstMean := runLengths(LinkConfig{Rate: 10 * Mbps, QueueLen: 1 << 16, Burst: g})
	indepMean := runLengths(LinkConfig{Rate: 10 * Mbps, QueueLen: 1 << 16, Loss: g.StationaryLoss()})
	if burstMean < 2*indepMean {
		t.Errorf("burst mean run length %.2f not clearly above independent %.2f", burstMean, indepMean)
	}
}

// TestStationaryLossAnalytic pins the closed form.
func TestStationaryLossAnalytic(t *testing.T) {
	cases := []struct {
		g    GilbertElliott
		want float64
	}{
		{GilbertElliott{}, 0},
		{GilbertElliott{LossGood: 0.3}, 0.3},
		{GilbertElliott{PGoodToBad: 0.1, PBadToGood: 0.3, LossBad: 1}, 0.25},
		{GilbertElliott{PGoodToBad: 0.05, PBadToGood: 0.25, LossGood: 0.01, LossBad: 0.8}, (0.25/0.3)*0.01 + (0.05 / 0.3 * 0.8)},
	}
	for i, c := range cases {
		if got := c.g.StationaryLoss(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: StationaryLoss = %v, want %v", i, got, c.want)
		}
	}
	if (GilbertElliott{}).Enabled() {
		t.Error("zero model reports enabled")
	}
	if !(GilbertElliott{PGoodToBad: 0.1}).Enabled() {
		t.Error("configured model reports disabled")
	}
}

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
	if l.Lost[0] != 0 || l.LostRandom[0] != 0 {
		t.Errorf("loss counters moved on a loss-free link: Lost=%d LostRandom=%d", l.Lost[0], l.LostRandom[0])
	}

	// Random loss.
	l.cfg.Loss = 1.0
	send(3)
	if reasons["loss"] != 3 || l.LostRandom[0] != 3 {
		t.Errorf("random loss: trace=%d counter=%d, want 3", reasons["loss"], l.LostRandom[0])
	}

	// Burst loss.
	l.cfg.Loss = 0
	l.cfg.Burst = GilbertElliott{PGoodToBad: 1, PBadToGood: 0, LossBad: 1}
	send(3)
	if reasons["loss-burst"] != 3 || l.LostBurst[0] != 3 {
		t.Errorf("burst loss: trace=%d counter=%d, want 3", reasons["loss-burst"], l.LostBurst[0])
	}
	if l.Lost[0] != l.LostRandom[0]+l.LostBurst[0] {
		t.Errorf("Lost=%d != LostRandom(%d)+LostBurst(%d)", l.Lost[0], l.LostRandom[0], l.LostBurst[0])
	}

	// Admin down.
	l.cfg.Burst = GilbertElliott{}
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
	if got := l.Config().Rate; got != 5*Mbps {
		t.Errorf("degraded rate = %v, want 5Mbps", got)
	}
	if got := l.Config().Loss; math.Abs(got-0.3) > 1e-12 {
		t.Errorf("degraded loss = %v, want 0.3", got)
	}
	// Replace, not compound.
	l.Degrade(0.1, 0)
	if got := l.Config().Rate; got != 1*Mbps {
		t.Errorf("second degrade rate = %v, want 1Mbps", got)
	}
	if got := l.Config().Loss; math.Abs(got-0.1) > 1e-12 {
		t.Errorf("second degrade loss = %v, want base 0.1", got)
	}
	l.Restore()
	if got := l.Config(); got.Rate != 10*Mbps || math.Abs(got.Loss-0.1) > 1e-12 {
		t.Errorf("restored config = %+v, want original", got)
	}
	// Restore with no brownout: no-op.
	l.Restore()
	if got := l.Config().Rate; got != 10*Mbps {
		t.Errorf("idempotent restore broke config: %v", got)
	}
}
