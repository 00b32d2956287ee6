package mtcp_test

import (
	"strings"
	"testing"
	"time"

	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
)

func TestConnAccessors(t *testing.T) {
	d := newDuplex(t, 18, simnet.LinkConfig{Rate: simnet.Mbps, Delay: time.Millisecond})
	if d.cs.Node() != d.client {
		t.Error("Stack.Node mismatch")
	}
	var server *mtcp.Conn
	if err := d.ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) { server = c }); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	client := d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
		}
	})
	if err := d.net.Sched.RunFor(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !client.Established() || server == nil || !server.Established() {
		t.Fatal("handshake incomplete")
	}
	if client.LocalAddr().Node != d.client.ID || client.RemoteAddr() != (simnet.Addr{Node: d.server.ID, Port: 80}) {
		t.Errorf("addrs: local=%v remote=%v", client.LocalAddr(), client.RemoteAddr())
	}
	if server.RemoteAddr() != client.LocalAddr() {
		t.Error("server's remote != client's local")
	}
}

func TestOnEOFLateRegistration(t *testing.T) {
	// Registering OnEOF after the FIN already arrived must still fire.
	d := newDuplex(t, 19, simnet.LinkConfig{Rate: simnet.Mbps, Delay: time.Millisecond})
	var server *mtcp.Conn
	if err := d.ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		server = c
		c.OnData(func([]byte) {})
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.Send([]byte("x"))
		c.Close() // half-close: FIN reaches the server
	})
	if err := d.net.Sched.RunFor(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	fired := false
	server.OnEOF(func() { fired = true })
	if !fired {
		t.Error("late OnEOF registration did not fire for an already-received FIN")
	}
}

func TestOnCloseLateRegistration(t *testing.T) {
	d := newDuplex(t, 20, simnet.LinkConfig{Rate: simnet.Mbps, Delay: time.Millisecond})
	if err := d.ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		c.OnEOF(c.Close)
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var client *mtcp.Conn
	client = d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.Close()
	})
	if err := d.net.Sched.RunFor(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	fired := false
	client.OnClose(func(err error) { fired = err == nil })
	if !fired {
		t.Error("late OnClose registration did not fire for an already-closed conn")
	}
}

func TestSignalReconnectIgnoredBeforeEstablishment(t *testing.T) {
	d := newDuplex(t, 21, simnet.LinkConfig{Rate: simnet.Mbps, Delay: time.Millisecond})
	d.link.IfaceB().Up = false // SYN goes nowhere
	c := d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, mtcp.Options{RTOInitial: 50 * time.Millisecond},
		func(*mtcp.Conn, error) {})
	c.SignalReconnect() // must be a no-op, not a panic
	if err := d.net.Sched.RunFor(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if c.Stats().DupAcksSent != 0 {
		t.Error("SignalReconnect acted on an unestablished connection")
	}
}

func TestSegmentStrings(t *testing.T) {
	seg := &mtcp.Segment{Flags: mtcp.SYN | mtcp.ACK, Seq: 5, Ack: 9, Payload: []byte("ab")}
	s := seg.String()
	for _, want := range []string{"SYN", "ACK", "seq=5", "ack=9", "len=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("Segment.String() = %q missing %q", s, want)
		}
	}
	if got := (mtcp.Flags(0)).String(); got != "-" {
		t.Errorf("zero flags = %q", got)
	}
	if got := (mtcp.FIN | mtcp.RST).String(); !strings.Contains(got, "FIN") || !strings.Contains(got, "RST") {
		t.Errorf("FIN|RST = %q", got)
	}
}
