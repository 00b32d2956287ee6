package wireless

import (
	"testing"
	"time"

	"mcommerce/internal/simnet"
)

func TestAccessorsAndStrings(t *testing.T) {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	lan := NewLAN(net, IEEE80211g, DefaultConfig())
	stNode := net.NewNode("st")
	ap := lan.AddAP(net.NewNode("ap"), Position{X: 1, Y: 2})
	st := lan.AddStation(stNode, Position{X: 3, Y: 4})

	if lan.Standard().Name != "802.11g" {
		t.Errorf("Standard = %v", lan.Standard())
	}
	if st.Radio() == nil || st.Radio().Node != stNode {
		t.Error("station radio wiring")
	}
	if got := (Position{X: 1.5, Y: -2}).String(); got != "(1.5,-2.0)" {
		t.Errorf("Position.String = %q", got)
	}
	if st.ap != ap {
		t.Error("station should be associated")
	}
}

func TestZeroQueueLenDefaults(t *testing.T) {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	cfg := Config{} // QueueLen zero
	lan := NewLAN(net, IEEE80211b, cfg)
	if lan.cfg.QueueLen != simnet.DefaultQueueLen {
		t.Errorf("QueueLen = %d", lan.cfg.QueueLen)
	}
}

func TestAPToUnassociatedStationIsLost(t *testing.T) {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	cfg := DefaultConfig()
	cfg.BitErrorRate = 0
	lan := NewLAN(net, IEEE80211b, cfg)
	apNode := net.NewNode("ap")
	ap := lan.AddAP(apNode, Position{})
	apNode.SetDefaultRoute(ap.radio) // force the frame onto the air
	farNode := net.NewNode("far")
	lan.AddStation(farNode, Position{X: 500}) // out of range: unassociated
	got := 0
	farNode.Bind(simnet.ProtoControl, func(p *simnet.Packet) { got++ })
	apNode.Send(&simnet.Packet{
		Src: simnet.Addr{Node: apNode.ID}, Dst: simnet.Addr{Node: farNode.ID},
		Proto: simnet.ProtoControl, Bytes: 100,
	})
	if err := net.Sched.RunFor(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 0 {
		t.Error("frame delivered to unassociated station")
	}
	if lan.LostRange == 0 {
		t.Error("LostRange not counted")
	}
}

func TestStationOutOfRangeNoAdhocIsLost(t *testing.T) {
	net := simnet.NewNetwork(simnet.NewScheduler(1))
	cfg := DefaultConfig() // AdHoc off
	lan := NewLAN(net, IEEE80211b, cfg)
	a := net.NewNode("a")
	lan.AddStation(a, Position{}) // no APs at all
	b := net.NewNode("b")
	got := 0
	b.Bind(simnet.ProtoControl, func(p *simnet.Packet) { got++ })
	a.Send(&simnet.Packet{
		Src: simnet.Addr{Node: a.ID}, Dst: simnet.Addr{Node: b.ID},
		Proto: simnet.ProtoControl, Bytes: 100,
	})
	if err := net.Sched.RunFor(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 0 || lan.LostRange == 0 {
		t.Errorf("got=%d lostRange=%d", got, lan.LostRange)
	}
}
