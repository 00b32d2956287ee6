package simnet

import (
	"testing"
	"time"

	"mcommerce/internal/trace"
)

func TestNetworkAndNodeAPI(t *testing.T) {
	net := NewNetwork(NewScheduler(1))
	a := net.NewNode("a")
	b := net.NewNode("b")
	l := Connect(a, b, LinkConfig{Rate: Mbps, Delay: time.Millisecond, BitErrorRate: 1e-7})

	if net.Node(a.ID) != a || net.Node(999) != nil {
		t.Error("Node lookup")
	}
	if a.Network() != net || a.Sched() != net.Sched {
		t.Error("back references")
	}
	if len(a.Ifaces()) != 1 || a.Ifaces()[0] != l.IfaceA() {
		t.Errorf("Ifaces = %v", a.Ifaces())
	}

	a.Bind(ProtoControl, func(*Packet) {})
	if !a.Bound(ProtoControl) || a.Bound(ProtoTCP) {
		t.Error("Bound")
	}

	a.SetRoute(b.ID, l.IfaceA())
	if a.RouteTo(b.ID) != l.IfaceA() {
		t.Error("SetRoute")
	}
	a.ClearRoute(b.ID)
	if a.RouteTo(b.ID) != nil {
		t.Error("ClearRoute")
	}

	if net.Sched.Pending() != 0 {
		t.Errorf("Pending = %d", net.Sched.Pending())
	}
	net.Sched.After(-time.Second, func() {}) // negative clamps to zero
	if net.Sched.Pending() != 1 {
		t.Errorf("Pending after schedule = %d", net.Sched.Pending())
	}
}

func TestPacketAndProtocolStrings(t *testing.T) {
	p := &Packet{Src: Addr{Node: 1, Port: 2}, Dst: Addr{Node: 3, Port: 4}, Proto: ProtoTunnel, Bytes: 9}
	if got := p.String(); got != "TUNNEL 1:2->3:4 (9B)" {
		t.Errorf("Packet.String = %q", got)
	}
	for proto, want := range map[Protocol]string{
		ProtoUDP: "UDP", ProtoTCP: "TCP", ProtoTunnel: "TUNNEL",
		ProtoControl: "CTL", Protocol(99): "PROTO(99)",
	} {
		if proto.String() != want {
			t.Errorf("%d.String() = %q, want %q", proto, proto.String(), want)
		}
	}
}

func TestNodeDropCountsAndTraces(t *testing.T) {
	net := NewNetwork(NewScheduler(1))
	a := net.NewNode("a")
	net.Tracer.EnableExport(1)
	root := net.Tracer.StartTrace("test.txn", trace.LayerStation)
	a.Drop(&Packet{Proto: ProtoControl, Bytes: 1, Trace: root}, "custom-reason")
	if a.Dropped != 1 {
		t.Errorf("Dropped = %d", a.Dropped)
	}
	if got := annotCounts(net); len(got) != 1 || got["custom-reason"] != 1 {
		t.Errorf("drop annotations = %v", got)
	}
}

func TestBitErrorRateLinkLoss(t *testing.T) {
	// 1500-byte frames at BER 1e-4: P(loss) = 1-(1-1e-4)^12000 ≈ 0.70.
	net, a, b, l := twoNodes(t, LinkConfig{Rate: 100 * Mbps, BitErrorRate: 1e-4, QueueLen: 1 << 20})
	got := 0
	b.Bind(ProtoControl, func(*Packet) { got++ })
	const n = 2000
	for i := 0; i < n; i++ {
		i := i
		net.Sched.At(time.Duration(i)*time.Millisecond, func() {
			a.Send(&Packet{Src: Addr{Node: a.ID}, Dst: Addr{Node: b.ID}, Proto: ProtoControl, Bytes: 1500})
		})
	}
	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	loss := float64(l.Lost[0]) / n
	if loss < 0.6 || loss > 0.8 {
		t.Errorf("BER loss = %.2f, want ≈ 0.70", loss)
	}
	// Small frames must fare much better.
	net2, a2, b2, l2 := twoNodes(t, LinkConfig{Rate: 100 * Mbps, BitErrorRate: 1e-4, QueueLen: 1 << 20})
	b2.Bind(ProtoControl, func(*Packet) {})
	for i := 0; i < n; i++ {
		i := i
		net2.Sched.At(time.Duration(i)*time.Millisecond, func() {
			a2.Send(&Packet{Src: Addr{Node: a2.ID}, Dst: Addr{Node: b2.ID}, Proto: ProtoControl, Bytes: 50})
		})
	}
	if err := net2.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	smallLoss := float64(l2.Lost[0]) / n
	if smallLoss >= loss/5 {
		t.Errorf("small-frame loss %.3f not far below large-frame loss %.3f", smallLoss, loss)
	}
}
