package wireless

import (
	"testing"

	"mcommerce/internal/simnet"
)

// lanEcho is a station associated with an AP whose node answers every
// control packet with a pooled reply. round sends one pooled frame up
// and runs the world until the reply has come down; got counts replies.
func lanEcho(t testing.TB) (round func(), got *int) {
	cfg := DefaultConfig()
	cfg.BitErrorRate = 0
	net, _, _, st, ap := infra(t, IEEE80211b, cfg, Position{X: 20})
	got = new(int)
	ap.node.Bind(simnet.ProtoControl, func(p *simnet.Packet) {
		r := net.AllocPacket()
		r.Src, r.Dst, r.Proto, r.Bytes = p.Dst, p.Src, simnet.ProtoControl, p.Bytes
		ap.node.Send(r)
	})
	st.node.Bind(simnet.ProtoControl, func(*simnet.Packet) { *got++ })
	round = func() {
		p := net.AllocPacket()
		p.Src = simnet.Addr{Node: st.node.ID}
		p.Dst = simnet.Addr{Node: ap.node.ID}
		p.Proto = simnet.ProtoControl
		p.Bytes = 100
		st.node.Send(p)
		for net.Sched.Step() {
		}
	}
	for range 64 {
		round()
	}
	return round, got
}

// TestLANForwardZeroAlloc pins the pooled radio path: a frame from a
// station to its AP and the reply back, each through Network.Carry,
// allocate nothing once the pools are warm.
func TestLANForwardZeroAlloc(t *testing.T) {
	round, got := lanEcho(t)
	if n := testing.AllocsPerRun(500, round); n != 0 {
		t.Errorf("WLAN frame round trip allocates %.1f/op, want 0", n)
	}
	if *got != 64+501 {
		t.Fatalf("%d replies, want %d", *got, 64+501)
	}
}

// BenchmarkLANForward measures one steady-state WLAN frame each way, from
// send to delivery, station to AP and back. It must be 0 allocs/op.
func BenchmarkLANForward(b *testing.B) {
	round, got := lanEcho(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		round()
	}
	if *got != 64+b.N {
		b.Fatalf("%d replies, want %d", *got, 64+b.N)
	}
}
