package cellular

import (
	"testing"

	"mcommerce/internal/simnet"
)

// cellEcho is an attached GPRS mobile whose base station's node answers
// every control packet with a pooled reply. round sends one pooled frame
// up and runs the world until the reply has come down; got counts
// replies.
func cellEcho(t testing.TB) (round func(), got *int) {
	cfg := DefaultConfig()
	cfg.BitErrorRate = 0
	simn, _, _, cell, mob := cellTopo(t, GPRS, cfg)
	if err := mob.Attach(nil); err != nil {
		t.Fatal(err)
	}
	if err := simn.Sched.Run(); err != nil {
		t.Fatal(err)
	}
	got = new(int)
	cell.node.Bind(simnet.ProtoControl, func(p *simnet.Packet) {
		r := simn.AllocPacket()
		r.Src, r.Dst, r.Proto, r.Bytes = p.Dst, p.Src, simnet.ProtoControl, p.Bytes
		cell.node.Send(r)
	})
	mob.node.Bind(simnet.ProtoControl, func(*simnet.Packet) { *got++ })
	round = func() {
		p := simn.AllocPacket()
		p.Src = simnet.Addr{Node: mob.node.ID}
		p.Dst = simnet.Addr{Node: cell.node.ID}
		p.Proto = simnet.ProtoControl
		p.Bytes = 100
		mob.node.Send(p)
		for simn.Sched.Step() {
		}
	}
	for range 64 {
		round()
	}
	return round, got
}

// TestCellFrameZeroAlloc pins the pooled cellular path: a frame queued by
// value on the uplink transmitter, its reply on the downlink, each
// delivered through Network.Carry, allocate nothing once warm.
func TestCellFrameZeroAlloc(t *testing.T) {
	round, got := cellEcho(t)
	if n := testing.AllocsPerRun(500, round); n != 0 {
		t.Errorf("GPRS frame round trip allocates %.1f/op, want 0", n)
	}
	if *got != 64+501 {
		t.Fatalf("%d replies, want %d", *got, 64+501)
	}
}

// BenchmarkCellFrame measures one steady-state GPRS frame each way, from
// send to delivery, mobile to base station and back. It must be 0
// allocs/op.
func BenchmarkCellFrame(b *testing.B) {
	round, got := cellEcho(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		round()
	}
	if *got != 64+b.N {
		b.Fatalf("%d replies, want %d", *got, 64+b.N)
	}
}
