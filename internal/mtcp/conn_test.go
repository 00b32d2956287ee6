package mtcp_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mcommerce/internal/mtcp"
	"mcommerce/internal/simnet"
)

// duplex is a two-host test topology: client --link-- server.
type duplex struct {
	net            *simnet.Network
	client, server *simnet.Node
	link           *simnet.Link
	cs, ss         *mtcp.Stack
}

func newDuplex(t testing.TB, seed int64, cfg simnet.LinkConfig) *duplex {
	t.Helper()
	net := simnet.NewNetwork(simnet.NewScheduler(seed))
	c := net.NewNode("client")
	s := net.NewNode("server")
	l := simnet.Connect(c, s, cfg)
	c.SetDefaultRoute(l.IfaceA())
	s.SetDefaultRoute(l.IfaceB())
	cs, err := mtcp.NewStack(c)
	if err != nil {
		t.Fatalf("client stack: %v", err)
	}
	ss, err := mtcp.NewStack(s)
	if err != nil {
		t.Fatalf("server stack: %v", err)
	}
	return &duplex{net: net, client: c, server: s, link: l, cs: cs, ss: ss}
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i/251)
	}
	return b
}

func TestHandshakeAndEcho(t *testing.T) {
	d := newDuplex(t, 1, simnet.LinkConfig{Rate: simnet.Mbps, Delay: 5 * time.Millisecond})
	if err := d.ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		c.OnData(func(b []byte) { c.Send(b) })
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}

	var got []byte
	d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.OnData(func(b []byte) { got = append(got, b...) })
		c.Send([]byte("hello mobile commerce"))
	})
	if err := d.net.Sched.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if string(got) != "hello mobile commerce" {
		t.Errorf("echo = %q", got)
	}
}

func TestBulkTransferInOrder(t *testing.T) {
	d := newDuplex(t, 2, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 10 * time.Millisecond})
	const size = 500_000
	want := pattern(size)

	var got []byte
	if err := d.ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		c.OnData(func(b []byte) { got = append(got, b...) })
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.Send(want)
	})
	if err := d.net.Sched.RunUntil(60 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("received %d bytes, want %d; content match=%v", len(got), len(want), bytes.Equal(got, want))
	}
}

func TestBulkTransferSurvivesLoss(t *testing.T) {
	d := newDuplex(t, 3, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 10 * time.Millisecond, Loss: 0.05})
	const size = 200_000
	want := pattern(size)

	var got []byte
	closed := false
	if err := d.ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		c.OnData(func(b []byte) {
			got = append(got, b...)
			if len(got) == size {
				c.Close()
			}
		})
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var client *mtcp.Conn
	client = d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.Send(want)
		c.OnClose(func(error) { closed = true })
		c.Close()
	})
	if err := d.net.Sched.RunUntil(120 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("received %d/%d bytes intact=%v", len(got), len(want), bytes.Equal(got, want))
	}
	st := client.Stats()
	if st.Retransmits == 0 {
		t.Error("expected retransmissions on a 5% lossy link")
	}
	if !closed {
		t.Error("close never completed")
	}
}

func TestFastRetransmitOnTripleDupAck(t *testing.T) {
	d := newDuplex(t, 4, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 10 * time.Millisecond})
	// Drop exactly one mid-stream data segment (the 15th, once slow start
	// has opened the window) using a tap on the server.
	dataSegs, dropped := 0, false
	d.server.AddTap(func(p *simnet.Packet) bool {
		seg, ok := p.Body.(*mtcp.Segment)
		if !ok || dropped || len(seg.Payload) == 0 {
			return true
		}
		dataSegs++
		if dataSegs == 15 {
			dropped = true
			return false
		}
		return true
	})

	var got int
	if err := d.ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		c.OnData(func(b []byte) { got += len(b) })
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	const size = 300_000
	var client *mtcp.Conn
	client = d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.Send(pattern(size))
	})
	if err := d.net.Sched.RunUntil(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != size {
		t.Fatalf("received %d, want %d", got, size)
	}
	st := client.Stats()
	if st.FastRetransmits < 1 {
		t.Errorf("FastRetransmits = %d, want >= 1", st.FastRetransmits)
	}
	if st.Timeouts != 0 {
		t.Errorf("Timeouts = %d; single loss should recover without RTO", st.Timeouts)
	}
}

func TestRTORecoversFromBurstLoss(t *testing.T) {
	d := newDuplex(t, 5, simnet.LinkConfig{Rate: simnet.Mbps, Delay: 10 * time.Millisecond})
	var got int
	if err := d.ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		c.OnData(func(b []byte) { got += len(b) })
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	const size = 100_000
	var client *mtcp.Conn
	client = d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.Send(pattern(size))
	})
	// A 2-second total blackout mid-transfer: all in-flight data and acks
	// die; only the RTO can recover.
	d.net.Sched.At(200*time.Millisecond, func() { d.link.IfaceB().Up = false })
	d.net.Sched.At(2200*time.Millisecond, func() { d.link.IfaceB().Up = true })
	if err := d.net.Sched.RunUntil(60 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != size {
		t.Fatalf("received %d, want %d", got, size)
	}
	if client.Stats().Timeouts == 0 {
		t.Error("expected RTO timeouts across the blackout")
	}
}

func TestConnectionAbortsAfterMaxRetries(t *testing.T) {
	d := newDuplex(t, 6, simnet.LinkConfig{Rate: simnet.Mbps, Delay: time.Millisecond})
	var connErr error
	gotErr := false
	if err := d.ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	opts := mtcp.Options{RTOInitial: 100 * time.Millisecond}
	var client *mtcp.Conn
	client = d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, opts, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.OnClose(func(err error) { connErr, gotErr = err, true })
		c.Send(pattern(10000))
		// Permanent blackout right after the handshake.
		d.link.IfaceB().Up = false
	})
	if err := d.net.Sched.RunUntil(time.Hour); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !gotErr || connErr != mtcp.ErrTimeout {
		t.Errorf("OnClose err = %v (fired=%v), want ErrTimeout", connErr, gotErr)
	}
	_ = client
}

func TestDialRefusedByRST(t *testing.T) {
	d := newDuplex(t, 7, simnet.LinkConfig{Rate: simnet.Mbps, Delay: time.Millisecond})
	var dialErr error
	fired := false
	d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 81}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		dialErr, fired = err, true
	})
	if err := d.net.Sched.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired || dialErr != mtcp.ErrReset {
		t.Errorf("dial callback err = %v (fired=%v), want ErrReset", dialErr, fired)
	}
}

func TestOrderlyCloseBothDirections(t *testing.T) {
	d := newDuplex(t, 8, simnet.LinkConfig{Rate: simnet.Mbps, Delay: 5 * time.Millisecond})
	var clientErr, serverErr error
	clientClosed, serverClosed := false, false

	if err := d.ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		c.OnData(func(b []byte) {})
		c.OnClose(func(err error) { serverErr, serverClosed = err, true })
		c.Send([]byte("bye"))
		c.Close()
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.OnData(func(b []byte) {})
		c.OnClose(func(err error) { clientErr, clientClosed = err, true })
		c.Send([]byte("hi"))
		c.Close()
	})
	if err := d.net.Sched.RunUntil(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !clientClosed || clientErr != nil {
		t.Errorf("client close: fired=%v err=%v", clientClosed, clientErr)
	}
	if !serverClosed || serverErr != nil {
		t.Errorf("server close: fired=%v err=%v", serverClosed, serverErr)
	}
}

func TestHalfCloseServerKeepsSending(t *testing.T) {
	d := newDuplex(t, 9, simnet.LinkConfig{Rate: simnet.Mbps, Delay: 5 * time.Millisecond})
	const size = 50_000
	var got int
	done := false
	if err := d.ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		// Server sends a large response after the client half-closes.
		c.OnData(func(b []byte) {})
		c.Send(pattern(size))
		c.Close()
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.OnData(func(b []byte) { got += len(b) })
		c.OnClose(func(error) { done = true })
		c.Send([]byte("GET"))
		c.Close() // half close: we are done talking, still listening
	})
	if err := d.net.Sched.RunUntil(60 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != size {
		t.Errorf("received %d, want %d", got, size)
	}
	if !done {
		t.Error("client close never completed")
	}
}

func TestAbortSendsRST(t *testing.T) {
	d := newDuplex(t, 10, simnet.LinkConfig{Rate: simnet.Mbps, Delay: 5 * time.Millisecond})
	var serverErr error
	fired := false
	if err := d.ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		c.OnClose(func(err error) { serverErr, fired = err, true })
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		d.net.Sched.After(100*time.Millisecond, c.Abort)
	})
	if err := d.net.Sched.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired || serverErr != mtcp.ErrReset {
		t.Errorf("server OnClose = %v (fired=%v), want ErrReset", serverErr, fired)
	}
}

func TestRTTEstimateApproximatesPathRTT(t *testing.T) {
	d := newDuplex(t, 11, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 25 * time.Millisecond})
	if err := d.ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		c.OnData(func(b []byte) {})
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var client *mtcp.Conn
	client = d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.Send(pattern(100_000))
	})
	if err := d.net.Sched.RunUntil(30 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	srtt := client.Stats().SRTT
	// Path RTT is ~50 ms plus serialization/queueing.
	if srtt < 50*time.Millisecond || srtt > 250*time.Millisecond {
		t.Errorf("SRTT = %v, want ~50-250 ms", srtt)
	}
	if rto := client.Stats().RTO; rto < srtt {
		t.Errorf("RTO %v below SRTT %v", rto, srtt)
	}
}

func TestGoodputBoundedByLinkRate(t *testing.T) {
	d := newDuplex(t, 12, simnet.LinkConfig{Rate: simnet.Mbps, Delay: 10 * time.Millisecond})
	var got int
	if err := d.ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		c.OnData(func(b []byte) { got += len(b) })
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.Send(pattern(2_000_000))
	})
	const window = 10 * time.Second
	if err := d.net.Sched.RunUntil(window); err != nil {
		t.Fatalf("Run: %v", err)
	}
	goodput := float64(got*8) / window.Seconds()
	if goodput > 1e6 {
		t.Errorf("goodput %.0f bps exceeds 1 Mbps link", goodput)
	}
	// Should reach at least 70% utilization on a clean link.
	if goodput < 0.7e6 {
		t.Errorf("goodput %.0f bps too low for clean 1 Mbps link", goodput)
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	// Three nodes: two senders behind a router, one bottleneck link.
	net := simnet.NewNetwork(simnet.NewScheduler(13))
	s1 := net.NewNode("s1")
	s2 := net.NewNode("s2")
	r := net.NewNode("r")
	dst := net.NewNode("dst")
	r.Forwarding = true
	l1 := simnet.Connect(s1, r, simnet.LAN)
	l2 := simnet.Connect(s2, r, simnet.LAN)
	lb := simnet.Connect(r, dst, simnet.LinkConfig{Rate: 2 * simnet.Mbps, Delay: 10 * time.Millisecond, QueueLen: 20})
	s1.SetDefaultRoute(l1.IfaceA())
	s2.SetDefaultRoute(l2.IfaceA())
	dst.SetDefaultRoute(lb.IfaceB())
	r.SetRoute(s1.ID, l1.IfaceB())
	r.SetRoute(s2.ID, l2.IfaceB())
	r.SetRoute(dst.ID, lb.IfaceA())

	st1 := mtcp.MustNewStack(s1)
	st2 := mtcp.MustNewStack(s2)
	std := mtcp.MustNewStack(dst)

	rx := map[simnet.Port]int{}
	for _, port := range []simnet.Port{80, 81} {
		port := port
		if err := std.Listen(port, mtcp.Options{}, func(c *mtcp.Conn) {
			c.OnData(func(b []byte) { rx[port] += len(b) })
		}); err != nil {
			t.Fatalf("Listen: %v", err)
		}
	}
	for _, x := range []struct {
		st   *mtcp.Stack
		port simnet.Port
	}{{st1, 80}, {st2, 81}} {
		x := x
		x.st.Dial(simnet.Addr{Node: dst.ID, Port: x.port}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			c.Send(pattern(5_000_000))
		})
	}
	const window = 20 * time.Second
	if err := net.Sched.RunUntil(window); err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := rx[80] + rx[81]
	if total == 0 {
		t.Fatal("no data delivered")
	}
	util := float64(total*8) / window.Seconds() / 2e6
	if util < 0.6 || util > 1.0 {
		t.Errorf("bottleneck utilization = %.2f", util)
	}
	share := float64(rx[80]) / float64(total)
	if share < 0.2 || share > 0.8 {
		t.Errorf("unfair split: %.2f / %.2f", share, 1-share)
	}
}

// multiLossRun transfers 300 KB dropping three data segments from one
// congestion window and reports (timeouts, fastRetransmits, completed
// virtual time).
func multiLossRun(t *testing.T, newReno bool) (uint64, uint64, time.Duration) {
	t.Helper()
	d := newDuplex(t, 17, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 10 * time.Millisecond})
	dataSegs := 0
	dropSet := map[int]bool{20: true, 22: true, 24: true} // same window
	d.server.AddTap(func(p *simnet.Packet) bool {
		seg, ok := p.Body.(*mtcp.Segment)
		if !ok || len(seg.Payload) == 0 {
			return true
		}
		dataSegs++
		return !dropSet[dataSegs]
	})
	const size = 300_000
	got := 0
	var doneAt time.Duration
	if err := d.ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		c.OnData(func(b []byte) {
			got += len(b)
			if got >= size && doneAt == 0 {
				doneAt = d.net.Sched.Now()
			}
		})
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var client *mtcp.Conn
	client = d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, mtcp.Options{NewReno: newReno},
		func(c *mtcp.Conn, err error) {
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			c.Send(pattern(size))
		})
	if err := d.net.Sched.RunUntil(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != size {
		t.Fatalf("incomplete: %d/%d (newReno=%v)", got, size, newReno)
	}
	st := client.Stats()
	return st.Timeouts, st.FastRetransmits, doneAt
}

func TestNewRenoRecoversMultiLossWithoutTimeout(t *testing.T) {
	renoTO, _, renoTime := multiLossRun(t, false)
	nrTO, nrFR, nrTime := multiLossRun(t, true)
	// NewReno must clear three losses from one window without an RTO.
	if nrTO != 0 {
		t.Errorf("NewReno timeouts = %d, want 0", nrTO)
	}
	if nrFR < 1 {
		t.Errorf("NewReno fast retransmits = %d", nrFR)
	}
	// Classic Reno needs at least one timeout for the same loss pattern
	// (first loss recovers via fast retransmit, the rest stall).
	if renoTO == 0 {
		t.Skip("classic Reno recovered without timeout on this pattern; loss positions too benign")
	}
	if nrTime >= renoTime {
		t.Errorf("NewReno (%v) not faster than Reno (%v)", nrTime, renoTime)
	}
}

func TestBulkTransferOverJitteryLink(t *testing.T) {
	// Jitter reorders packets; the receiver's reassembly queue must
	// restore the stream, and spurious dupack-triggered retransmissions
	// must not prevent completion.
	d := newDuplex(t, 16, simnet.LinkConfig{
		Rate: 10 * simnet.Mbps, Delay: 10 * time.Millisecond, Jitter: 6 * time.Millisecond,
	})
	const size = 300_000
	want := pattern(size)
	var got []byte
	if err := d.ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
		c.OnData(func(b []byte) { got = append(got, b...) })
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.Send(want)
	})
	if err := d.net.Sched.RunUntil(2 * time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stream corrupted over jittery link: %d/%d bytes", len(got), len(want))
	}
}

// Property: any sequence of Send calls arrives as the identical
// concatenated byte stream, even over a lossy link.
func TestStreamIntegrityProperty(t *testing.T) {
	prop := func(chunks [][]byte, seed int64) bool {
		var want []byte
		for _, ch := range chunks {
			want = append(want, ch...)
		}
		if len(want) > 100_000 {
			return true // keep runtime bounded
		}
		d := newDuplex(t, seed, simnet.LinkConfig{Rate: 10 * simnet.Mbps, Delay: 5 * time.Millisecond, Loss: 0.02})
		var got []byte
		if err := d.ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {
			c.OnData(func(b []byte) { got = append(got, b...) })
		}); err != nil {
			return false
		}
		d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
			if err != nil {
				return
			}
			for _, ch := range chunks {
				c.Send(ch)
			}
		})
		if err := d.net.Sched.RunUntil(5 * time.Minute); err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestListenPortConflict(t *testing.T) {
	d := newDuplex(t, 14, simnet.LinkConfig{Rate: simnet.Mbps})
	if err := d.ss.Listen(80, mtcp.Options{}, func(*mtcp.Conn) {}); err != nil {
		t.Fatalf("first Listen: %v", err)
	}
	if err := d.ss.Listen(80, mtcp.Options{}, func(*mtcp.Conn) {}); err == nil {
		t.Error("duplicate Listen should fail")
	}
}

func TestOneStackPerNode(t *testing.T) {
	d := newDuplex(t, 15, simnet.LinkConfig{Rate: simnet.Mbps})
	if _, err := mtcp.NewStack(d.client); err == nil {
		t.Error("second NewStack on a node should fail")
	}
}

// TestEphemeralPortsExhaustedPanics fills every ephemeral port but one
// with a listener: Dial must still find that port, and with none free
// it must panic naming the node and the range instead of spinning.
func TestEphemeralPortsExhaustedPanics(t *testing.T) {
	d := newDuplex(t, 16, simnet.LinkConfig{Rate: simnet.Mbps})
	server := simnet.Addr{Node: d.server.ID, Port: 80}
	for p := 32768; p <= 65535; p++ {
		if p == 40000 {
			continue
		}
		if err := d.cs.Listen(simnet.Port(p), mtcp.Options{}, func(*mtcp.Conn) {}); err != nil {
			t.Fatalf("Listen %d: %v", p, err)
		}
	}
	if got := d.cs.Dial(server, mtcp.Options{}, func(*mtcp.Conn, error) {}).LocalAddr().Port; got != 40000 {
		t.Fatalf("Dial took port %d, want the one free port 40000", got)
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "client") || !strings.Contains(msg, "32768-65535") {
			t.Fatalf("panic %q does not name the node and the range", msg)
		}
	}()
	d.cs.Dial(server, mtcp.Options{}, func(*mtcp.Conn, error) {})
	t.Fatal("Dial returned with every ephemeral port in use")
}

// segTrace records every segment either host receives, with its arrival
// time, for an exchange in which the client sends parts in one Send.
func segTrace(t *testing.T, parts ...[]byte) []string {
	t.Helper()
	d := newDuplex(t, 9, simnet.LinkConfig{Rate: simnet.Mbps, Delay: 5 * time.Millisecond, Loss: 0.02})
	var out []string
	for _, n := range []*simnet.Node{d.client, d.server} {
		n.AddTap(func(p *simnet.Packet) bool {
			seg := p.Body.(*mtcp.Segment)
			out = append(out, fmt.Sprintf("%v %s %v %d %d %d %q",
				d.net.Sched.Now(), n.Name, seg.Flags, seg.Seq, seg.Ack, seg.Wnd, seg.Payload))
			return true
		})
	}
	if err := d.ss.Listen(80, mtcp.Options{}, func(c *mtcp.Conn) {}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	d.cs.Dial(simnet.Addr{Node: d.server.ID, Port: 80}, mtcp.Options{}, func(c *mtcp.Conn, err error) {
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		c.Send(parts...)
		c.Close()
	})
	if err := d.net.Sched.RunUntil(60 * time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out
}

// Send(a, b) puts exactly the segments of Send(a+b) on the wire, byte for
// byte and in the same order, including retransmissions.
func TestSendPartsSegmentLikeOneSend(t *testing.T) {
	head, body := []byte("HTTP/1.0 200 OK\r\ncontent-length: 20000\r\n\r\n"), pattern(20000)
	for i, parts := range [][][]byte{
		{head, body},
		{nil, body},
		{head, nil},
		{head[:7], head[7:], body[:3], body[3:]},
	} {
		want := segTrace(t, bytes.Join(parts, nil))
		got := segTrace(t, parts...)
		if i == 0 && len(want) < 20 {
			t.Fatalf("only %d segments on the wire", len(want))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Send of %d parts: %d segments differ from one Send's %d", len(parts), len(got), len(want))
		}
	}
}
