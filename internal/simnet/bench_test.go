package simnet

import (
	"testing"
	"time"
)

// BenchmarkSchedulerEventThroughput measures raw event dispatch rate — the
// ceiling for every simulation in the repository.
func BenchmarkSchedulerEventThroughput(b *testing.B) {
	s := NewScheduler(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i)*time.Nanosecond, func() {})
	}
	b.ResetTimer()
	for s.Step() {
	}
}

// BenchmarkSchedulerTimerChurn measures schedule+cancel cycles (the TCP
// RTO pattern: most timers never fire).
func BenchmarkSchedulerTimerChurn(b *testing.B) {
	s := NewScheduler(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := s.After(time.Hour, func() {})
		t.Cancel()
		if i%1024 == 0 {
			// Drain cancelled events so the heap stays bounded.
			for s.Pending() > 0 && !s.Step() {
				break
			}
		}
	}
}

// BenchmarkLinkPacketDelivery measures the per-packet cost of the wired
// link path: send -> serialize -> propagate -> deliver, for packets built
// as plain literals. Its 1 alloc/op is that literal; BenchmarkLinkForward
// is the same path on pooled packets.
func BenchmarkLinkPacketDelivery(b *testing.B) {
	net := NewNetwork(NewScheduler(1))
	a := net.NewNode("a")
	c := net.NewNode("b")
	l := Connect(a, c, LinkConfig{Rate: Gbps, Delay: time.Microsecond, QueueLen: 1 << 20})
	a.SetDefaultRoute(l.IfaceA())
	got := 0
	c.Bind(ProtoControl, func(p *Packet) { got++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(&Packet{Src: Addr{Node: a.ID}, Dst: Addr{Node: c.ID}, Proto: ProtoControl, Bytes: 100})
		// Keep the event queue shallow.
		for net.Sched.Pending() > 64 {
			net.Sched.Step()
		}
	}
	for net.Sched.Step() {
	}
	if got != b.N {
		b.Fatalf("delivered %d/%d", got, b.N)
	}
}

// TestSchedulerSteadyStateZeroAlloc pins the allocation-free contract of
// the scheduler hot path: once the arena is warm, schedule+fire allocates
// nothing.
func TestSchedulerSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i), fn)
	}
	for s.Step() {
	}
	if n := testing.AllocsPerRun(500, func() {
		s.After(time.Microsecond, fn)
		s.Step()
	}); n != 0 {
		t.Errorf("scheduler steady state allocates %.1f/op, want 0", n)
	}
}

// TestLinkForwardSteadyStateZeroAlloc pins the allocation-free contract of
// the pooled packet path: a pooled send delivered over a link allocates
// nothing once the pools are warm.
func TestLinkForwardSteadyStateZeroAlloc(t *testing.T) {
	net := NewNetwork(NewScheduler(1))
	a := net.NewNode("a")
	c := net.NewNode("b")
	l := Connect(a, c, LinkConfig{Rate: Gbps, Delay: time.Microsecond, QueueLen: 1 << 20})
	a.SetDefaultRoute(l.IfaceA())
	delivered := 0
	c.Bind(ProtoControl, func(p *Packet) { delivered++ })
	iter := func() {
		p := net.AllocPacket()
		p.Src = Addr{Node: a.ID}
		p.Dst = Addr{Node: c.ID}
		p.Proto = ProtoControl
		p.Bytes = 100
		a.Send(p)
		for net.Sched.Step() {
		}
	}
	for i := 0; i < 64; i++ {
		iter()
	}
	if n := testing.AllocsPerRun(500, iter); n != 0 {
		t.Errorf("link forward steady state allocates %.1f/op, want 0", n)
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestLinkAdminStateZeroAlloc pins the allocation-free contract of the
// admin-state check on the forwarding hot path: toggling SetDown and
// sending through both the up and down states allocates nothing, with the
// loss model drawing a verdict for every packet.
func TestLinkAdminStateZeroAlloc(t *testing.T) {
	net := NewNetwork(NewScheduler(1))
	a := net.NewNode("a")
	c := net.NewNode("b")
	l := Connect(a, c, LinkConfig{Rate: Gbps, Delay: time.Microsecond, QueueLen: 1 << 20, Loss: 0.25})
	a.SetDefaultRoute(l.IfaceA())
	delivered := 0
	c.Bind(ProtoControl, func(p *Packet) { delivered++ })
	iter := func() {
		l.SetDown(true)
		p := net.AllocPacket()
		p.Src = Addr{Node: a.ID}
		p.Dst = Addr{Node: c.ID}
		p.Proto = ProtoControl
		p.Bytes = 100
		a.Send(p) // discarded by the admin check
		l.SetDown(false)
		p = net.AllocPacket()
		p.Src = Addr{Node: a.ID}
		p.Dst = Addr{Node: c.ID}
		p.Proto = ProtoControl
		p.Bytes = 100
		a.Send(p)
		for net.Sched.Step() {
		}
	}
	for i := 0; i < 64; i++ {
		iter()
	}
	if n := testing.AllocsPerRun(500, iter); n != 0 {
		t.Errorf("admin-state hot path allocates %.1f/op, want 0", n)
	}
	if down := l.DroppedDown[0]; down == 0 {
		t.Fatal("no packets discarded while down")
	}
	if delivered == 0 {
		t.Fatal("nothing delivered while up")
	}
}

// BenchmarkSchedulerAfterStep measures the steady-state schedule+fire
// cycle: one After and one Step per iteration, the pattern every protocol
// timer and transmission event follows. Steady state must be 0 allocs/op.
func BenchmarkSchedulerAfterStep(b *testing.B) {
	s := NewScheduler(1)
	fn := func() {}
	// Warm the arena, heap and free list.
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, fn)
		if !s.Step() {
			b.Fatal("empty queue")
		}
	}
}

// BenchmarkTimerCancelChurn measures schedule+cancel cycles (the TCP RTO
// pattern: most timers never fire), including the compaction that keeps
// cancelled entries from accumulating. Steady state must be 0 allocs/op.
func BenchmarkTimerCancelChurn(b *testing.B) {
	s := NewScheduler(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Hour, fn).Cancel()
	}
	if got := s.Pending(); got != 0 {
		b.Fatalf("Pending = %d after cancelling everything", got)
	}
}

// BenchmarkLinkForward measures the full wired hot path with pooled
// packets: pooled send -> serialize -> propagate -> deliver. Steady state
// must be 0 allocs/op.
func BenchmarkLinkForward(b *testing.B) {
	net := NewNetwork(NewScheduler(1))
	a := net.NewNode("a")
	c := net.NewNode("b")
	l := Connect(a, c, LinkConfig{Rate: Gbps, Delay: time.Microsecond, QueueLen: 1 << 20})
	a.SetDefaultRoute(l.IfaceA())
	got := 0
	c.Bind(ProtoControl, func(p *Packet) { got++ })
	send := func() {
		p := net.AllocPacket()
		p.Src = Addr{Node: a.ID}
		p.Dst = Addr{Node: c.ID}
		p.Proto = ProtoControl
		p.Bytes = 100
		a.Send(p)
	}
	// Warm the pools and reach queue steady state.
	for i := 0; i < 256; i++ {
		send()
		for net.Sched.Pending() > 64 {
			net.Sched.Step()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
		for net.Sched.Pending() > 64 {
			net.Sched.Step()
		}
	}
	for net.Sched.Step() {
	}
	if got != b.N+256 {
		b.Fatalf("delivered %d/%d", got, b.N+256)
	}
}

// BenchmarkUDPDeliver measures UDP demux at the scale tier's port
// density: a node with 16,000 bound ports (one cell's station
// population) sharing one handler, where each op sends one pooled
// datagram to a port picked by a fixed stride and steps it to delivery.
// Demux is two loads in the paged port table, so an op allocates nothing.
func BenchmarkUDPDeliver(b *testing.B) {
	const (
		nPorts    = 16000
		firstPort = Port(1000)
		stride    = 7919 // prime, so the walk visits every port
	)
	net := NewNetwork(NewScheduler(1))
	a := net.NewNode("a")
	c := net.NewNode("cell")
	l := Connect(a, c, LinkConfig{Rate: Gbps, Delay: time.Microsecond, QueueLen: 1 << 20})
	a.SetDefaultRoute(l.IfaceA())
	ua, uc := UDPOf(a), UDPOf(c)
	got := 0
	h := func(Port, Addr, any, int) { got++ }
	for i := range nPorts {
		if err := uc.Listen(firstPort+Port(i), h); err != nil {
			b.Fatal(err)
		}
	}
	k := 0
	send := func() {
		k = (k + stride) % nPorts
		ua.Send(1, Addr{Node: c.ID, Port: firstPort + Port(k)}, nil, 100)
		for net.Sched.Step() {
		}
	}
	for range 256 { // warm the pools
		send()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		send()
	}
	if got != b.N+256 {
		b.Fatalf("delivered %d/%d", got, b.N+256)
	}
}

// routerPath is a two-hop world a -> r -> c with forwarding on r, plus a
// pooled send from a to c. Each delivery bumps *got.
func routerPath() (net *Network, send func(), got *int) {
	net = NewNetwork(NewScheduler(1))
	a := net.NewNode("a")
	r := net.NewNode("r")
	c := net.NewNode("c")
	r.Forwarding = true
	l1 := Connect(a, r, LinkConfig{Rate: Gbps, QueueLen: 1 << 20})
	l2 := Connect(r, c, LinkConfig{Rate: Gbps, QueueLen: 1 << 20})
	a.SetDefaultRoute(l1.IfaceA())
	r.SetRoute(c.ID, l2.IfaceA())
	got = new(int)
	c.Bind(ProtoControl, func(p *Packet) { *got++ })
	send = func() {
		p := net.AllocPacket()
		p.Src = Addr{Node: a.ID}
		p.Dst = Addr{Node: c.ID}
		p.Proto = ProtoControl
		p.Bytes = 100
		a.Send(p)
	}
	return net, send, got
}

// TestRouterForwardSteadyStateZeroAlloc pins the allocation-free contract
// of the two-hop forward path: a pooled send, TTL decrement and re-queue
// at the router, and delivery allocate nothing once the pools are warm.
func TestRouterForwardSteadyStateZeroAlloc(t *testing.T) {
	net, send, got := routerPath()
	iter := func() {
		send()
		for net.Sched.Step() {
		}
	}
	for i := 0; i < 64; i++ {
		iter()
	}
	if n := testing.AllocsPerRun(500, iter); n != 0 {
		t.Errorf("router forward steady state allocates %.1f/op, want 0", n)
	}
	if *got == 0 {
		t.Fatal("nothing delivered")
	}
}

// BenchmarkRouterForwarding measures the two-hop forwarding path with
// pooled packets. Steady state must be 0 allocs/op.
func BenchmarkRouterForwarding(b *testing.B) {
	net, send, got := routerPath()
	// Warm the pools and reach queue steady state.
	for i := 0; i < 256; i++ {
		send()
		for net.Sched.Pending() > 64 {
			net.Sched.Step()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
		for net.Sched.Pending() > 64 {
			net.Sched.Step()
		}
	}
	for net.Sched.Step() {
	}
	if *got != b.N+256 {
		b.Fatalf("delivered %d/%d", *got, b.N+256)
	}
}

// BenchmarkTimerChurn1M measures an After+Cancel+re-arm mix against a
// standing population of one million live timers — the m-commerce shape:
// every virtual station keeps a think-time or session timer armed, so the
// queue depth tracks the user population, not the throughput. The /wheel
// leg runs the production timing-wheel scheduler; /heap runs the
// pre-wheel 4-ary heap kept as the ordering oracle in scheduler_ref_test,
// so the speedup the wheel claims is measured, not remembered.
func BenchmarkTimerChurn1M(b *testing.B) {
	const live = 1 << 20
	fn := func() {}
	b.Run("wheel", func(b *testing.B) {
		s := NewScheduler(1)
		timers := make([]Timer, live)
		for i := range timers {
			timers[i] = s.After(time.Duration(1+i%1000)*time.Millisecond+time.Hour, fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i & (live - 1)
			timers[j].Cancel()
			timers[j] = s.After(time.Duration(1+i%997)*time.Millisecond, fn)
		}
	})
	b.Run("heap", func(b *testing.B) {
		s := &refScheduler{}
		timers := make([]refTimer, live)
		for i := range timers {
			timers[i] = s.After(time.Duration(1+i%1000)*time.Millisecond+time.Hour, fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i & (live - 1)
			timers[j].Cancel()
			timers[j] = s.After(time.Duration(1+i%997)*time.Millisecond, fn)
		}
	})
}
