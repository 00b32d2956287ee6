package simnet

import (
	"strings"
	"testing"
	"time"

	"mcommerce/internal/trace"
)

// sendTraced sends p from node under a fresh transaction root span, the
// way a transaction layer would, and returns the root's context. The
// network's tracer must be enabled for the root to be recorded.
func sendTraced(net *Network, from *Node, p *Packet) trace.Context {
	root := net.Tracer.StartTrace("test.txn", trace.LayerStation)
	prev := net.Tracer.Swap(root)
	from.Send(p)
	net.Tracer.Swap(prev)
	return root
}

// annotCounts tallies every annotation kind recorded on the tracer's spans.
func annotCounts(net *Network) map[string]int {
	counts := map[string]int{}
	for _, sp := range net.Tracer.Spans() {
		for _, a := range sp.Annots[:sp.NAnnots] {
			counts[a.Kind]++
		}
	}
	return counts
}

func TestTracerObservesSendDeliverDrop(t *testing.T) {
	net, a, b, _ := twoNodes(t, LinkConfig{Rate: Mbps, Delay: time.Millisecond})
	net.Tracer.EnableExport(1)
	b.Bind(ProtoControl, func(p *Packet) {})

	// One delivered packet and one dropped (no handler for UDP).
	sendTraced(net, a, &Packet{Src: Addr{Node: a.ID}, Dst: Addr{Node: b.ID}, Proto: ProtoControl, Bytes: 100})
	dropped := sendTraced(net, a, &Packet{Src: Addr{Node: a.ID}, Dst: Addr{Node: b.ID}, Proto: ProtoUDP, Bytes: 100})
	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	tx, rx := a.Ifaces()[0].TxPackets, b.Ifaces()[0].RxPackets
	if tx != 2 || rx != 2 || b.Dropped != 1 {
		t.Errorf("sends=%d delivers=%d drops=%d, want 2/2/1", tx, rx, b.Dropped)
	}
	if got := annotCounts(net); len(got) != 1 || got["no-handler"] != 1 {
		t.Errorf("drop annotations = %v, want one no-handler", got)
	}
	for _, sp := range net.Tracer.Spans() {
		if sp.NAnnots > 0 && sp.ID != dropped.Span {
			t.Errorf("drop annotated on span %q, want the dropped packet's root", sp.Name)
		}
	}
}

// TestTraceForwardKind verifies that a routed packet records one wired
// hop span per link, both under the originating transaction's root.
func TestTraceForwardKind(t *testing.T) {
	net := NewNetwork(NewScheduler(1))
	a := net.NewNode("a")
	r := net.NewNode("r")
	b := net.NewNode("b")
	r.Forwarding = true
	ar := Connect(a, r, LinkConfig{Rate: Mbps, Delay: time.Millisecond})
	rb := Connect(r, b, LinkConfig{Rate: Mbps, Delay: time.Millisecond})
	a.SetDefaultRoute(ar.IfaceA())
	r.SetRoute(a.ID, ar.IfaceB())
	r.SetRoute(b.ID, rb.IfaceA())
	b.SetDefaultRoute(rb.IfaceB())
	b.Bind(ProtoControl, func(p *Packet) {})
	net.Tracer.EnableExport(1)

	root := sendTraced(net, a, &Packet{Src: Addr{Node: a.ID}, Dst: Addr{Node: b.ID}, Proto: ProtoControl, Bytes: 100})
	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	spans := net.Tracer.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want root + two hops: %+v", len(spans), spans)
	}
	for _, hop := range spans[1:] {
		if hop.Parent != root.Span || hop.Trace != root.Trace || hop.Layer != trace.LayerWired || !hop.Finished {
			t.Errorf("bad hop span: %+v", hop)
		}
	}
	if spans[1].Name == spans[2].Name {
		t.Errorf("both hops named %q, want one span per link", spans[1].Name)
	}
	if spans[2].Start < spans[1].End {
		t.Errorf("forward hop starts at %v, before the first hop ends at %v", spans[2].Start, spans[1].End)
	}
	if ar.IfaceB().RxPackets != 1 || rb.IfaceA().TxPackets != 1 || r.Dropped != 0 {
		t.Errorf("router rx=%d tx=%d dropped=%d, want 1/1/0",
			ar.IfaceB().RxPackets, rb.IfaceA().TxPackets, r.Dropped)
	}
}

// TestPacketCarriesSpanContext verifies the simnet leg of causal tracing:
// Send stamps the ambient context, link hops record wired spans under it,
// and Deliver reinstates the context for the handler.
func TestPacketCarriesSpanContext(t *testing.T) {
	net, a, b, _ := twoNodes(t, LinkConfig{Rate: Mbps, Delay: time.Millisecond})
	net.Tracer.EnableExport(1)
	var handlerCtx trace.Context
	b.Bind(ProtoControl, func(p *Packet) {
		handlerCtx = net.Tracer.Current()
	})

	root := net.Tracer.StartTrace("test.txn", trace.LayerStation)
	prev := net.Tracer.Swap(root)
	a.Send(&Packet{Src: Addr{Node: a.ID}, Dst: Addr{Node: b.ID}, Proto: ProtoControl, Bytes: 100})
	net.Tracer.Swap(prev)
	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	net.Tracer.Finish(root)

	if handlerCtx.Trace != root.Trace {
		t.Fatalf("handler saw trace %d, want %d", handlerCtx.Trace, root.Trace)
	}
	spans := net.Tracer.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want root + link hop: %+v", len(spans), spans)
	}
	hop := spans[1]
	if hop.Parent != spans[0].ID || hop.Layer != trace.LayerWired || !hop.Finished {
		t.Fatalf("bad hop span: %+v", hop)
	}
	if !strings.HasPrefix(hop.Name, "simnet.link.") {
		t.Fatalf("hop span name = %q", hop.Name)
	}
	if hop.Duration() < time.Millisecond {
		t.Fatalf("hop span shorter than propagation delay: %v", hop.Duration())
	}
}

// TestLinkHopSpanZeroAllocs pins the traced forwarding path: with the
// tracer in ring mode, sending over a link must not allocate.
func TestLinkHopSpanZeroAllocs(t *testing.T) {
	net, a, b, _ := twoNodes(t, LinkConfig{Rate: 100 * Mbps})
	net.Tracer.EnableRing(256, 1)
	b.Bind(ProtoControl, func(p *Packet) {})
	// Warm the packet/delivery free lists.
	for i := 0; i < 3; i++ {
		p := net.AllocPacket()
		p.Src, p.Dst, p.Proto, p.Bytes = Addr{Node: a.ID}, Addr{Node: b.ID}, ProtoControl, 100
		a.Send(p)
		if err := net.Sched.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		root := net.Tracer.StartTrace("test.txn", trace.LayerStation)
		prev := net.Tracer.Swap(root)
		p := net.AllocPacket()
		p.Src, p.Dst, p.Proto, p.Bytes = Addr{Node: a.ID}, Addr{Node: b.ID}, ProtoControl, 100
		a.Send(p)
		net.Tracer.Swap(prev)
		if err := net.Sched.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		net.Tracer.Finish(root)
	})
	if allocs != 0 {
		t.Fatalf("traced link send allocates %v allocs/op, want 0", allocs)
	}
}
