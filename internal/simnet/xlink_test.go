package simnet

import (
	"slices"
	"strings"
	"testing"
	"time"

	"mcommerce/internal/metrics"
)

// physicsCfg turns on every per-packet model a link has: jitter,
// independent and bit-error loss, and a queue short enough for
// sendBursts to overflow.
var physicsCfg = LinkConfig{
	Rate:         10 * Mbps,
	Delay:        5 * time.Millisecond,
	Jitter:       3 * time.Millisecond,
	Loss:         0.02,
	BitErrorRate: 1e-5,
	QueueLen:     8,
}

// arrival is one delivered packet: when, and its place in the send
// order.
type arrival struct {
	at  time.Duration
	seq int
}

// sendBursts schedules 100 bursts of 12 mixed-size packets from a to dst,
// one every 2ms: about 36 Mbps offered to a 10 Mbps link. Each packet's
// Body is its send sequence number.
func sendBursts(net *Network, a *Node, dst NodeID) {
	for i := 0; i < 100; i++ {
		net.Sched.At(time.Duration(i)*2*time.Millisecond, func() {
			for j := 0; j < 12; j++ {
				p := net.AllocPacket()
				p.Src, p.Dst, p.Proto = Addr{Node: a.ID}, Addr{Node: dst}, ProtoControl
				p.Bytes, p.Body = 200+100*j, 12*i+j
				a.Send(p)
			}
		})
	}
}

// linkCounters is every per-direction counter of a link.
func linkCounters(l *Link) [4][2]uint64 {
	return [4][2]uint64{l.Delivered, l.Lost, l.Dropped, l.DroppedDown}
}

// counterNames lists the registry entries under prefix, prefix cut off.
func counterNames(s metrics.Snapshot, prefix string) []string {
	var out []string
	for _, e := range s.Entries {
		if name, ok := strings.CutPrefix(e.Name, prefix); ok {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// TestLinkCounterSet pins the exact per-direction counters a link
// registers: delivered, lost, dropped_queue and dropped_down. A Connect
// link puts all eight in its network's registry; a Cross link puts each
// direction's transmit-side counters in the sending shard's registry and
// its delivered counter in the receiving shard's.
func TestLinkCounterSet(t *testing.T) {
	net := NewNetwork(NewScheduler(1))
	Connect(net.NewNode("a"), net.NewNode("b"), LinkConfig{Name: "ab", Rate: Mbps})
	want := []string{
		"delivered.ab", "delivered.ba", "dropped_down.ab", "dropped_down.ba",
		"dropped_queue.ab", "dropped_queue.ba", "lost.ab", "lost.ba",
	}
	if got := counterNames(net.Metrics.Snapshot(), "simnet.link.ab."); !slices.Equal(got, want) {
		t.Errorf("Connect link counters %v, want %v", got, want)
	}

	w := NewSharded(1, 2)
	if _, err := w.Cross(w.Shard(0).NewNode("a"), w.Shard(1).NewNode("b"),
		LinkConfig{Name: "ab", Rate: Mbps, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	for k, want := range [2][]string{
		{"delivered.ba", "dropped_down.ab", "dropped_queue.ab", "lost.ab"},
		{"delivered.ab", "dropped_down.ba", "dropped_queue.ba", "lost.ba"},
	} {
		if got := counterNames(w.Shard(k).Metrics.Snapshot(), "simnet.xlink.ab."); !slices.Equal(got, want) {
			t.Errorf("Cross link counters in shard %d: %v, want %v", k, got, want)
		}
	}
}

// TestCrossMatchesConnect pins that a cross link runs the same wire model
// as a local one: the same sends from shard 0 (which uses the world's own
// seed) over Cross and from a plain network over Connect draw the same
// verdicts and arrive at the same instants.
func TestCrossMatchesConnect(t *testing.T) {
	const seed = 11
	const horizon = time.Second

	net := NewNetwork(NewScheduler(seed))
	la, lb := net.NewNode("a"), net.NewNode("b")
	local := Connect(la, lb, physicsCfg)
	la.SetDefaultRoute(local.IfaceA())
	var want []arrival
	lb.Bind(ProtoControl, func(p *Packet) { want = append(want, arrival{net.Sched.Now(), p.Body.(int)}) })
	sendBursts(net, la, lb.ID)
	if err := net.Sched.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}

	w := NewSharded(seed, 2)
	xa, xb := w.Shard(0).NewNode("a"), w.Shard(1).NewNode("b")
	cross, err := w.Cross(xa, xb, physicsCfg)
	if err != nil {
		t.Fatal(err)
	}
	xa.SetDefaultRoute(cross.IfaceA())
	var got []arrival
	xb.Bind(ProtoControl, func(p *Packet) { got = append(got, arrival{xb.Sched().Now(), p.Body.(int)}) })
	sendBursts(w.Shard(0), xa, xb.ID)
	if err := w.RunUntil(horizon, 2); err != nil {
		t.Fatal(err)
	}

	c := linkCounters(local)
	if c[0][0] == 0 || c[1][0] == 0 || c[2][0] == 0 {
		t.Fatalf("a model stayed inert (delivered, lost, queue, down): %v", c)
	}
	if x := linkCounters(cross); x != c {
		t.Errorf("cross counters %v, local %v", x, c)
	}
	if len(got) != len(want) {
		t.Fatalf("cross delivered %d packets, local %d", len(got), len(want))
	}
	reordered := false
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrival %d: cross %+v, local %+v", i, got[i], want[i])
		}
		reordered = reordered || i > 0 && want[i].seq < want[i-1].seq
	}
	if !reordered {
		t.Error("jitter never reordered a burst")
	}
}

// TestCrossDeliveryZeroAllocPerPacket pins that a cross delivery draws
// its ring slot, delivery record and packet from warm pools: once warm, a
// window costs the same allocations whether 1 or 100 packets cross.
func TestCrossDeliveryZeroAllocPerPacket(t *testing.T) {
	w := NewSharded(1, 2)
	a, b := w.Shard(0).NewNode("a"), w.Shard(1).NewNode("b")
	l, err := w.Cross(a, b, LinkConfig{Rate: Gbps, Delay: time.Millisecond, QueueLen: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	a.SetDefaultRoute(l.IfaceA())
	delivered := 0
	b.Bind(ProtoControl, func(*Packet) { delivered++ })
	src := w.Shard(0)
	window := func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				p := src.AllocPacket()
				p.Src, p.Dst, p.Proto, p.Bytes = Addr{Node: a.ID}, Addr{Node: b.ID}, ProtoControl, 100
				a.Send(p)
			}
			if err := w.RunFor(w.Lookahead(), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 16; i++ {
		window(100)()
	}
	one := testing.AllocsPerRun(50, window(1))
	hundred := testing.AllocsPerRun(50, window(100))
	if hundred != one {
		t.Errorf("a window allocates %.0f with 100 packets crossing, %.0f with 1", hundred, one)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}
