package simnet

import (
	"maps"
	"strings"
	"testing"
	"time"

	"mcommerce/internal/trace"
)

// carryMedium is a stub medium that delivers every frame to the peer
// interface through Carry after a fixed delay, the way the radio media do.
type carryMedium struct {
	peer      map[*Iface]*Iface
	delivered uint64
}

func (m *carryMedium) Transmit(from *Iface, p *Packet) {
	n := from.Node.net
	n.Carry(n.Sched.Now()+time.Millisecond, m.peer[from], p, trace.Context{}, &m.delivered)
}

// echoPair builds nodes a and b joined by a Link or by a carryMedium. b
// answers every control packet with a pooled reply; a counts the replies.
func echoPair(overLink bool) (net *Network, a, b *Node, replies *int) {
	net = NewNetwork(NewScheduler(1))
	a, b = net.NewNode("a"), net.NewNode("b")
	if overLink {
		l := Connect(a, b, LinkConfig{Rate: Mbps, Delay: time.Millisecond, QueueLen: 1 << 10})
		a.SetDefaultRoute(l.IfaceA())
		b.SetDefaultRoute(l.IfaceB())
	} else {
		m := &carryMedium{peer: map[*Iface]*Iface{}}
		ia, ib := a.AddIface("stub", m), b.AddIface("stub", m)
		m.peer[ia], m.peer[ib] = ib, ia
		a.SetDefaultRoute(ia)
		b.SetDefaultRoute(ib)
	}
	replies = new(int)
	b.Bind(ProtoControl, func(p *Packet) {
		r := net.AllocPacket()
		r.Src, r.Dst, r.Proto, r.Bytes = p.Dst, p.Src, ProtoControl, p.Bytes
		b.Send(r)
	})
	a.Bind(ProtoControl, func(*Packet) { *replies++ })
	return net, a, b, replies
}

// exchange sends a burst of pooled packets from a to b, each answered by
// b, and runs the world until it is quiet.
func exchange(t *testing.T, net *Network, a, b *Node) {
	t.Helper()
	for i := range 16 {
		p := net.AllocPacket()
		p.Src, p.Dst, p.Proto, p.Bytes = Addr{Node: a.ID}, Addr{Node: b.ID}, ProtoControl, 100+i
		a.Send(p)
	}
	if err := net.Sched.Run(); err != nil {
		t.Fatal(err)
	}
}

// freeSets returns the identity of every packet and delivery record on
// net's free lists, failing on an entry not marked free.
func freeSets(t *testing.T, net *Network) (map[*Packet]bool, map[*delivery]bool) {
	t.Helper()
	pkts, dlvs := map[*Packet]bool{}, map[*delivery]bool{}
	for _, p := range net.pktFree {
		if !p.inPool || pkts[p] {
			t.Fatalf("packet free list holds %p twice or unmarked", p)
		}
		pkts[p] = true
	}
	for _, d := range net.dlvFree {
		if !d.inPool || dlvs[d] {
			t.Fatalf("record free list holds %p twice or unmarked", d)
		}
		dlvs[d] = true
	}
	return pkts, dlvs
}

// TestCarryReturnsEveryPooledObject: after a quiesced exchange over a Link
// and over a stub medium that delivers through Carry, every pooled packet
// and record is back on its free list. Running the same exchange again
// allocates nothing and leaves the free lists holding the very same
// objects; a leaked object would have to be replaced by a new one.
func TestCarryReturnsEveryPooledObject(t *testing.T) {
	for _, overLink := range []bool{true, false} {
		net, a, b, replies := echoPair(overLink)
		exchange(t, net, a, b)
		pkts, dlvs := freeSets(t, net)
		if n := testing.AllocsPerRun(1, func() { exchange(t, net, a, b) }); n != 0 {
			t.Errorf("link=%v: a repeated exchange allocated %.0f objects, want 0", overLink, n)
		}
		pkts2, dlvs2 := freeSets(t, net)
		if *replies != 48 {
			t.Fatalf("link=%v: %d replies, want 48", overLink, *replies)
		}
		if len(pkts) == 0 || len(dlvs) == 0 {
			t.Fatalf("link=%v: free lists empty (%d packets, %d records)", overLink, len(pkts), len(dlvs))
		}
		if !maps.Equal(pkts, pkts2) || !maps.Equal(dlvs, dlvs2) {
			t.Errorf("link=%v: the second exchange did not reuse the pools: %d/%d packets, %d/%d records",
				overLink, len(pkts), len(pkts2), len(dlvs), len(dlvs2))
		}
	}
}

func wantPanic(t *testing.T, msg string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if s, _ := r.(string); !strings.Contains(s, msg) {
			t.Errorf("recovered %v, want a panic containing %q", r, msg)
		}
	}()
	f()
}

// A record carried twice (scheduled for two arrivals) panics at the
// second, the way a pooled packet freed twice does; so does carrying a
// packet that is already back on the free list.
func TestCarryTwicePanics(t *testing.T) {
	net, a, b, _ := echoPair(false)
	var count uint64
	p := &Packet{Src: Addr{Node: a.ID}, Dst: Addr{Node: b.ID}, Proto: ProtoUDP, Bytes: 10}
	d := net.allocDelivery()
	d.dst, d.p, d.count = b.ifaces[0], net.clonePooled(p), &count
	net.Sched.AtCall(time.Millisecond, carryDeliver, d)
	net.Sched.AtCall(2*time.Millisecond, carryDeliver, d)
	wantPanic(t, "delivery record carried twice", func() { _ = net.Sched.Run() })
	if count != 1 {
		t.Errorf("delivered %d, want 1", count)
	}

	freed := net.AllocPacket()
	net.freePacket(freed)
	wantPanic(t, "already freed", func() {
		net.Carry(net.Sched.Now(), b.ifaces[0], freed, trace.Context{}, &count)
	})
}
