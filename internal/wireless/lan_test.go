package wireless

import (
	"testing"
	"time"

	"mcommerce/internal/simnet"
)

// infra builds: server --wired-- ap ))) station, with routes wired up.
func infra(t testing.TB, std Standard, cfg Config, stationPos Position) (
	*simnet.Network, *LAN, *simnet.Node, *Station, *AP,
) {
	t.Helper()
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	server := net.NewNode("server")
	apNode := net.NewNode("ap")
	stNode := net.NewNode("station")

	wired := simnet.Connect(server, apNode, simnet.LAN)
	server.SetDefaultRoute(wired.IfaceA())

	lan := NewLAN(net, std, cfg)
	ap := lan.AddAP(apNode, Position{})
	st := lan.AddStation(stNode, stationPos)
	apNode.SetRoute(server.ID, wired.IfaceB())
	return net, lan, server, st, ap
}

func ctl(src, dst *simnet.Node, bytes int) *simnet.Packet {
	return &simnet.Packet{
		Src: simnet.Addr{Node: src.ID}, Dst: simnet.Addr{Node: dst.ID},
		Proto: simnet.ProtoControl, Bytes: bytes,
	}
}

func TestStationAssociatesWithNearestAP(t *testing.T) {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	lan := NewLAN(net, IEEE80211b, DefaultConfig())
	ap1 := lan.AddAP(net.NewNode("ap1"), Position{X: 0})
	ap2 := lan.AddAP(net.NewNode("ap2"), Position{X: 150})
	st := lan.AddStation(net.NewNode("st"), Position{X: 140})
	_ = ap1
	if st.ap != ap2 {
		t.Errorf("associated with %v, want ap2", st.ap)
	}
}

func TestStationOutOfRangeUnassociated(t *testing.T) {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	lan := NewLAN(net, Bluetooth, DefaultConfig())
	lan.AddAP(net.NewNode("ap"), Position{})
	st := lan.AddStation(net.NewNode("st"), Position{X: 50}) // range is 10 m
	if st.Associated() {
		t.Error("station should not associate beyond range")
	}
}

func TestUplinkAndDownlinkThroughAP(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BitErrorRate = 0
	net, _, server, st, _ := infra(t, IEEE80211b, cfg, Position{X: 10})

	var atServer, atStation int
	server.Bind(simnet.ProtoControl, func(p *simnet.Packet) {
		atServer++
		server.Send(ctl(server, st.node, 500))
	})
	st.node.Bind(simnet.ProtoControl, func(p *simnet.Packet) { atStation++ })

	st.node.Send(ctl(st.node, server, 500))
	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if atServer != 1 || atStation != 1 {
		t.Errorf("server=%d station=%d, want 1,1", atServer, atStation)
	}
}

func TestSharedChannelSerializes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BitErrorRate = 0
	net, _, server, st, _ := infra(t, Bluetooth, cfg, Position{X: 1}) // 1 Mbps

	var arrivals []time.Duration
	server.Bind(simnet.ProtoControl, func(p *simnet.Packet) {
		arrivals = append(arrivals, net.Sched.Now())
	})
	for i := 0; i < 2; i++ {
		st.node.Send(ctl(st.node, server, 1000)) // 8 ms each at 1 Mbps
	}
	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d, want 2", len(arrivals))
	}
	gap := arrivals[1] - arrivals[0]
	if gap < 7*time.Millisecond {
		t.Errorf("frames did not serialize on shared channel: gap %v", gap)
	}
}

func TestDistanceReducesGoodput(t *testing.T) {
	// Saturate the channel: queue 200 frames at t=0 and count what gets
	// through in half a second.
	measure := func(pos Position) int {
		cfg := DefaultConfig()
		cfg.BitErrorRate = 0
		cfg.QueueLen = 1000
		net, _, server, st, _ := infra(t, IEEE80211b, cfg, pos)
		n := 0
		server.Bind(simnet.ProtoControl, func(p *simnet.Packet) { n++ })
		for i := 0; i < 200; i++ {
			st.node.Send(ctl(st.node, server, 1400))
		}
		if err := net.Sched.RunUntil(500 * time.Millisecond); err != nil {
			panic(err)
		}
		return n
	}
	near := measure(Position{X: 10}) // full rate: ~1.1 ms/frame
	far := measure(Position{X: 95})  // quarter rate: ~4.2 ms/frame
	if near != 200 {
		t.Errorf("near station delivered %d/200", near)
	}
	if far >= near {
		t.Errorf("far station (%d) should not outperform near (%d)", far, near)
	}
}

func TestBitErrorsLosePackets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BitErrorRate = 1e-4 // ~ 1-(1-1e-4)^8000 ≈ 0.55 loss for 1000B frames
	net, lan, server, st, _ := infra(t, IEEE80211b, cfg, Position{X: 10})
	n := 0
	server.Bind(simnet.ProtoControl, func(p *simnet.Packet) { n++ })
	const sent = 500
	for i := 0; i < sent; i++ {
		i := i
		net.Sched.At(time.Duration(i)*5*time.Millisecond, func() {
			st.node.Send(ctl(st.node, server, 1000))
		})
	}
	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n == sent || n == 0 {
		t.Fatalf("delivered %d of %d; want partial loss", n, sent)
	}
	loss := float64(lan.LostErrors) / float64(sent)
	if loss < 0.4 || loss > 0.7 {
		t.Errorf("loss = %.2f, want ≈ 0.55", loss)
	}
}

// Moving a station out of one AP's range into another's re-associates it
// at once: the old AP's route to the station is withdrawn, the new AP's
// is set, and frames flow again both ways through the new AP.
func TestMoveToReassociates(t *testing.T) {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	router := net.NewNode("router")
	router.Forwarding = true
	ap1n := net.NewNode("ap1")
	ap2n := net.NewNode("ap2")
	l1 := simnet.Connect(router, ap1n, simnet.LAN)
	l2 := simnet.Connect(router, ap2n, simnet.LAN)

	cfg := DefaultConfig()
	cfg.BitErrorRate = 0
	lan := NewLAN(net, IEEE80211b, cfg)
	ap1 := lan.AddAP(ap1n, Position{X: 0})
	ap2 := lan.AddAP(ap2n, Position{X: 300})
	ap1n.SetRoute(router.ID, l1.IfaceB())
	ap2n.SetRoute(router.ID, l2.IfaceB())
	st := lan.AddStation(net.NewNode("st"), Position{X: 10})
	router.SetRoute(st.node.ID, l1.IfaceA())
	if st.ap != ap1 || ap1n.RouteTo(st.node.ID) != ap1.radio {
		t.Fatal("station should start on ap1, routed from ap1")
	}

	// x=290 is beyond ap1's 100 m range and 10 m from ap2.
	st.MoveTo(Position{X: 290})
	if st.ap != ap2 {
		t.Fatalf("station on %v after the move, want ap2", st.ap)
	}
	if via := ap1n.RouteTo(st.node.ID); via == ap1.radio {
		t.Error("ap1 still routes to the station over its radio")
	}
	if via := ap2n.RouteTo(st.node.ID); via != ap2.radio {
		t.Errorf("ap2 routes to the station via %v, want its radio", via)
	}

	// The wired side repoints its route as a topology builder would.
	router.SetRoute(st.node.ID, l2.IfaceA())
	var down, up int
	st.node.Bind(simnet.ProtoControl, func(p *simnet.Packet) { down++ })
	router.Bind(simnet.ProtoControl, func(p *simnet.Packet) { up++ })
	const sent = 10
	for range sent {
		router.Send(ctl(router, st.node, 200))
		st.node.Send(ctl(st.node, router, 200))
	}
	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if down != sent || up != sent {
		t.Errorf("after the move: %d/%d frames down, %d/%d up", down, sent, up, sent)
	}
}

func TestAdHocModeDirectDelivery(t *testing.T) {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	cfg := DefaultConfig()
	cfg.BitErrorRate = 0
	cfg.AdHoc = true
	lan := NewLAN(net, IEEE80211b, cfg) // no APs at all
	a := lan.AddStation(net.NewNode("a"), Position{X: 0})
	b := lan.AddStation(net.NewNode("b"), Position{X: 30})
	got := false
	b.node.Bind(simnet.ProtoControl, func(p *simnet.Packet) { got = true })
	a.node.Send(ctl(a.node, b.node, 100))
	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !got {
		t.Error("ad hoc frame not delivered")
	}
}

func TestAdHocOutOfRangeFails(t *testing.T) {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	cfg := DefaultConfig()
	cfg.AdHoc = true
	lan := NewLAN(net, Bluetooth, cfg) // 10 m range
	a := lan.AddStation(net.NewNode("a"), Position{X: 0})
	b := lan.AddStation(net.NewNode("b"), Position{X: 60})
	got := false
	b.node.Bind(simnet.ProtoControl, func(p *simnet.Packet) { got = true })
	a.node.Send(ctl(a.node, b.node, 100))
	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got {
		t.Error("out-of-range ad hoc frame delivered")
	}
	if lan.LostRange == 0 {
		t.Error("LostRange not counted")
	}
}

func TestNoAdHocWithoutFlag(t *testing.T) {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	cfg := DefaultConfig()
	cfg.AdHoc = false
	lan := NewLAN(net, IEEE80211b, cfg)
	a := lan.AddStation(net.NewNode("a"), Position{X: 0})
	b := lan.AddStation(net.NewNode("b"), Position{X: 30})
	got := false
	b.node.Bind(simnet.ProtoControl, func(p *simnet.Packet) { got = true })
	a.node.Send(ctl(a.node, b.node, 100))
	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got {
		t.Error("infrastructure-mode LAN delivered station-to-station frame without AP")
	}
}

// An ad hoc broadcast gives each in-range peer its own packet: a handler
// that rewrites the packet it was handed changes no other peer's copy.
func TestAdHocBroadcastCopiesPerPeer(t *testing.T) {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	cfg := DefaultConfig()
	cfg.BitErrorRate = 0
	cfg.AdHoc = true
	lan := NewLAN(net, IEEE80211b, cfg)
	src := lan.AddStation(net.NewNode("src"), Position{})
	type seen struct {
		bytes int
		body  any
	}
	var got []seen
	for i := range 3 {
		peer := lan.AddStation(net.NewNode("peer"), Position{X: float64(10 * (i + 1))})
		peer.node.Bind(simnet.ProtoControl, func(p *simnet.Packet) {
			got = append(got, seen{p.Bytes, p.Body})
			p.Bytes, p.Body = 1, "rewritten"
		})
	}
	src.node.Send(&simnet.Packet{
		Src: simnet.Addr{Node: src.node.ID}, Dst: simnet.Addr{Node: simnet.Broadcast},
		Proto: simnet.ProtoControl, Bytes: 100, Body: "hello",
	})
	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("%d peers received the broadcast, want 3", len(got))
	}
	for i, s := range got {
		if s.bytes != 100 || s.body != "hello" {
			t.Errorf("peer %d saw Bytes=%d Body=%v, want 100 and hello", i, s.bytes, s.body)
		}
	}
}
