package simnet

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestUDPRoundTrip(t *testing.T) {
	net, a, b, _ := twoNodes(t, LinkConfig{Rate: Mbps, Delay: time.Millisecond})
	ua, ub := UDPOf(a), UDPOf(b)

	var reply string
	if err := ub.Listen(7, func(_ Port, from Addr, body any, bytes int) {
		msg, _ := body.(string)
		ub.Send(7, from, "echo:"+msg, bytes)
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	client := ua.ListenAny(func(_ Port, from Addr, body any, bytes int) {
		reply, _ = body.(string)
	})
	ua.Send(client, Addr{Node: b.ID, Port: 7}, "ping", 4)

	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if reply != "echo:ping" {
		t.Errorf("reply = %q, want echo:ping", reply)
	}
}

func TestUDPPortInUse(t *testing.T) {
	net := NewNetwork(NewScheduler(1))
	a := net.NewNode("a")
	u := UDPOf(a)
	if err := u.Listen(9, func(Port, Addr, any, int) {}); err != nil {
		t.Fatalf("first Listen: %v", err)
	}
	if err := u.Listen(9, func(Port, Addr, any, int) {}); err == nil {
		t.Fatal("second Listen on same port should fail")
	}
}

func TestUDPEphemeralPortsDistinct(t *testing.T) {
	net := NewNetwork(NewScheduler(1))
	u := UDPOf(net.NewNode("a"))
	seen := make(map[Port]bool)
	for i := 0; i < 100; i++ {
		p := u.ListenAny(func(Port, Addr, any, int) {})
		if seen[p] {
			t.Fatalf("duplicate ephemeral port %d", p)
		}
		seen[p] = true
	}
}

func TestUDPUnboundPortDropsAndCounts(t *testing.T) {
	net, a, b, _ := twoNodes(t, LinkConfig{Rate: Mbps})
	ua := UDPOf(a)
	UDPOf(b) // bind UDP stack but no ports
	ua.Send(1234, Addr{Node: b.ID, Port: 9999}, "lost", 4)
	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if b.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", b.Dropped)
	}
}

func TestUDPHeaderOverheadCharged(t *testing.T) {
	net, a, b, l := twoNodes(t, LinkConfig{Rate: Mbps})
	ua, ub := UDPOf(a), UDPOf(b)
	gotBytes := -1
	if err := ub.Listen(5, func(_ Port, from Addr, body any, bytes int) { gotBytes = bytes }); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ua.Send(1000, Addr{Node: b.ID, Port: 5}, nil, 100)
	if err := net.Sched.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gotBytes != 100 {
		t.Errorf("handler payload bytes = %d, want 100", gotBytes)
	}
	if l.IfaceA().TxBytes != 100+UDPHeaderBytes {
		t.Errorf("wire bytes = %d, want %d", l.IfaceA().TxBytes, 100+UDPHeaderBytes)
	}
}

func TestUDPOfIsIdempotent(t *testing.T) {
	net := NewNetwork(NewScheduler(1))
	a := net.NewNode("a")
	if UDPOf(a) != UDPOf(a) {
		t.Error("UDPOf returned different stacks for the same node")
	}
}

// TestUDPListenAnyExhaustedPanics binds every ephemeral port but one:
// ListenAny must still find that port, and with none free it must panic
// naming the node and the range instead of spinning.
func TestUDPListenAnyExhaustedPanics(t *testing.T) {
	net := NewNetwork(NewScheduler(1))
	u := UDPOf(net.NewNode("full"))
	noop := func(Port, Addr, any, int) {}
	for p := 49152; p <= 65535; p++ {
		if p == 50000 {
			continue
		}
		if err := u.Listen(Port(p), noop); err != nil {
			t.Fatalf("Listen %d: %v", p, err)
		}
	}
	if got := u.ListenAny(noop); got != 50000 {
		t.Fatalf("ListenAny = %d, want the one free port 50000", got)
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "full") || !strings.Contains(msg, "49152-65535") {
			t.Fatalf("panic %q does not name the node and the range", msg)
		}
	}()
	u.ListenAny(noop)
	t.Fatal("ListenAny returned with every ephemeral port bound")
}

// TestUDPNilHandlerRejected: a nil entry in the port table means
// "unbound", so a nil handler must not bind. Listen fails and leaves the
// port free; ListenAny panics.
func TestUDPNilHandlerRejected(t *testing.T) {
	net := NewNetwork(NewScheduler(1))
	u := UDPOf(net.NewNode("a"))
	if err := u.Listen(9, nil); err == nil {
		t.Fatal("Listen with a nil handler succeeded")
	}
	if err := u.Listen(9, func(Port, Addr, any, int) {}); err != nil {
		t.Fatalf("port stayed taken after the rejected nil Listen: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ListenAny with a nil handler did not panic")
		}
	}()
	u.ListenAny(nil)
}

// TestUDPHandlerSeesItsPort binds one handler on ports in several pages
// of the table and checks each delivery names the port it arrived on.
func TestUDPHandlerSeesItsPort(t *testing.T) {
	net, a, b, _ := twoNodes(t, LinkConfig{Rate: Mbps})
	ua, ub := UDPOf(a), UDPOf(b)
	ports := []Port{0, 255, 256, 4000, 49152, 65535}
	var got []Port
	h := func(to Port, _ Addr, _ any, _ int) { got = append(got, to) }
	for _, p := range ports {
		if err := ub.Listen(p, h); err != nil {
			t.Fatalf("Listen %d: %v", p, err)
		}
	}
	for _, p := range ports {
		ua.Send(1, Addr{Node: b.ID, Port: p}, nil, 1)
		if err := net.Sched.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(ports) {
		t.Fatalf("handler saw ports %v, want %v", got, ports)
	}
}
